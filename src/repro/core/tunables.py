"""The typed registry of Gage's tunable configuration knobs.

The registry is derived from :class:`~repro.core.config.GageConfig`: each
field carries its kind, legal range (or choice set) and one-line doc as
``dataclasses.field`` metadata, and this module turns every field into a
:class:`Tunable`.  Sweeps, the search harness
(:mod:`repro.harness.search`), and the generated knob-reference table in
``docs/architecture.md`` all read the registry, so a new config field
becomes sweepable, tunable, and documented by its one declaration.  A
field without metadata fails at import.

Deliberately excluded: ``generic_request``.  That field *defines* the
GRPS unit every other number is measured in; "tuning" it would silently
redefine the objective rather than optimize it.

Determinism: :meth:`Tunable.sample` and :meth:`Tunable.mutate` draw all
randomness from the caller's :class:`random.Random`, so a seeded search
over the registry is a pure function of its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, Mapping, Optional, Tuple, Union, cast

from repro.core.config import CHOICE, FLOAT, INT, GageConfig

#: A knob value: every registered field is one of these.
TunableValue = Union[None, int, float, str]

#: GageConfig fields deliberately absent from the registry (see module
#: docstring for why each is excluded).
EXCLUDED_FIELDS = frozenset({"generic_request"})


@dataclass(frozen=True)
class Tunable:
    """One tunable config field: type, legal values, and documentation.

    Parameters
    ----------
    name:
        The exact :class:`GageConfig` field name.
    kind:
        ``"float"``, ``"int"``, or ``"choice"``.
    default:
        The shipped default: the dataclass field's default.
    doc:
        One-line description, rendered into the knob-reference table.
    lo, hi:
        Inclusive bounds for numeric kinds.
    log:
        Sample/mutate numeric values in log space (for scale-like knobs
        spanning decades, e.g. cycle lengths).
    choices:
        The legal values of a ``"choice"`` kind.
    optional:
        ``None`` is also legal (e.g. ``heartbeat_miss_limit=None``
        disables detection).  ``default`` may then be ``None``.
    """

    name: str
    kind: str
    default: TunableValue
    doc: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    log: bool = False
    choices: Tuple[str, ...] = ()
    optional: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (FLOAT, INT, CHOICE):
            raise ValueError("unknown tunable kind: {!r}".format(self.kind))
        if self.kind == CHOICE:
            if not self.choices:
                raise ValueError("{}: choice tunable needs choices".format(self.name))
            if self.default not in self.choices:
                raise ValueError(
                    "{}: default {!r} not among choices".format(self.name, self.default)
                )
        else:
            if self.lo is None or self.hi is None:
                raise ValueError("{}: numeric tunable needs lo and hi".format(self.name))
            if self.lo > self.hi:
                raise ValueError("{}: lo exceeds hi".format(self.name))
            if self.log and self.lo <= 0:
                raise ValueError("{}: log-scale bounds must be positive".format(self.name))
            if self.default is not None:
                self.validate(self.default)

    # -- value checking ------------------------------------------------------

    def validate(self, value: TunableValue) -> None:
        """Raise ValueError unless ``value`` is legal for this knob."""
        if value is None:
            if not self.optional:
                raise ValueError("{}: None is not legal".format(self.name))
            return
        if self.kind == CHOICE:
            if value not in self.choices:
                raise ValueError(
                    "{}: {!r} not among {}".format(self.name, value, self.choices)
                )
            return
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError("{}: {!r} is not numeric".format(self.name, value))
        if self.kind == INT and not isinstance(value, int):
            raise ValueError("{}: {!r} is not an int".format(self.name, value))
        assert self.lo is not None and self.hi is not None
        if not self.lo <= float(value) <= self.hi:
            raise ValueError(
                "{}: {!r} outside [{}, {}]".format(self.name, value, self.lo, self.hi)
            )

    # -- seeded sampling and mutation ---------------------------------------

    def sample(self, rng: random.Random) -> TunableValue:
        """Draw one legal value; all randomness comes from ``rng``."""
        if self.optional and rng.random() < 0.1:
            return None
        if self.kind == CHOICE:
            return self.choices[rng.randrange(len(self.choices))]
        assert self.lo is not None and self.hi is not None
        if self.log:
            import math

            value = math.exp(rng.uniform(math.log(self.lo), math.log(self.hi)))
        else:
            value = rng.uniform(self.lo, self.hi)
        if self.kind == INT:
            return max(int(self.lo), min(int(self.hi), round(value)))
        return round(value, 6)

    def mutate(
        self, value: TunableValue, rng: random.Random, scale: float = 0.25
    ) -> TunableValue:
        """Perturb ``value`` locally; falls back to a fresh sample.

        Numeric kinds take a gaussian step of relative width ``scale``
        (in log space for log knobs) clipped to the bounds; choice kinds
        resample uniformly.  A ``None`` value, or an optional knob with
        a small probability, resamples from scratch so the search can
        enter and leave the "disabled" state.
        """
        if value is None or (self.optional and rng.random() < 0.05):
            return self.sample(rng)
        if self.kind == CHOICE:
            return self.choices[rng.randrange(len(self.choices))]
        assert self.lo is not None and self.hi is not None
        import math

        numeric = float(value)
        if self.log:
            stepped = math.exp(
                math.log(numeric)
                + rng.gauss(0.0, scale * (math.log(self.hi) - math.log(self.lo)))
            )
        else:
            stepped = numeric + rng.gauss(0.0, scale * (self.hi - self.lo))
        clipped = max(self.lo, min(self.hi, stepped))
        if self.kind == INT:
            return max(int(self.lo), min(int(self.hi), round(clipped)))
        return round(clipped, 6)

    # -- rendering -----------------------------------------------------------

    def range_text(self) -> str:
        """Human-readable legal-value description for the knob table."""
        if self.kind == CHOICE:
            text = " / ".join("`{}`".format(choice) for choice in self.choices)
        else:
            text = "[{:g}, {:g}]{}".format(
                float(self.lo or 0.0), float(self.hi or 0.0),
                " (log)" if self.log else "",
            )
        if self.optional:
            text += " or `None`"
        return text


def _registry() -> Tuple[Tunable, ...]:
    """One :class:`Tunable` per GageConfig field, from the field's metadata."""
    knobs = []
    for config_field in dataclass_fields(GageConfig):
        if config_field.name in EXCLUDED_FIELDS:
            continue
        if not config_field.metadata:
            raise TypeError(
                "GageConfig.{} declares no tunable metadata".format(config_field.name)
            )
        knobs.append(
            Tunable(
                name=config_field.name,
                default=cast(TunableValue, config_field.default),
                **config_field.metadata,
            )
        )
    return tuple(knobs)


#: The registry, in GageConfig field order: name → declaration.
REGISTRY: Dict[str, Tunable] = {tunable.name: tunable for tunable in _registry()}


def registry() -> Mapping[str, Tunable]:
    """Name → :class:`Tunable`, in declaration (= GageConfig field) order."""
    return REGISTRY


def get(name: str) -> Tunable:
    """The declaration for ``name`` (KeyError with the known names if absent)."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown tunable {!r}; known: {}".format(name, ", ".join(REGISTRY))
        ) from None


def defaults() -> Dict[str, TunableValue]:
    """Every registered knob at its declared default."""
    return {name: tunable.default for name, tunable in REGISTRY.items()}


def validate_params(params: Mapping[str, TunableValue]) -> None:
    """Raise ValueError/KeyError unless every (name, value) pair is legal."""
    for name, value in params.items():
        get(name).validate(value)


def config_from_params(params: Mapping[str, TunableValue]) -> GageConfig:
    """A :class:`GageConfig` with ``params`` overlaid on the defaults.

    Only registered names are accepted; values are validated against the
    registry *and* by ``GageConfig.__post_init__`` itself.
    """
    validate_params(params)
    return GageConfig(**dict(params))  # type: ignore[arg-type]


def config_field_names() -> Tuple[str, ...]:
    """GageConfig's field names minus the deliberate exclusions."""
    return tuple(
        field.name
        for field in dataclass_fields(GageConfig)
        if field.name not in EXCLUDED_FIELDS
    )


# -- the generated knob-reference table --------------------------------------

#: Markers bounding the generated region inside docs/architecture.md.
TABLE_BEGIN = "<!-- BEGIN GENERATED KNOB TABLE (python -m repro.core.tunables) -->"
TABLE_END = "<!-- END GENERATED KNOB TABLE -->"


def markdown_table() -> str:
    """The knob-reference table, one row per registered tunable."""
    lines = [
        "| Knob | Kind | Default | Legal values | What it does |",
        "|---|---|---|---|---|",
    ]
    for tunable in REGISTRY.values():
        default = "`None`" if tunable.default is None else "`{!r}`".format(
            tunable.default
        )
        lines.append(
            "| `{}` | {} | {} | {} | {} |".format(
                tunable.name,
                tunable.kind,
                default,
                tunable.range_text(),
                tunable.doc,
            )
        )
    return "\n".join(lines)


def render_into(document: str) -> str:
    """``document`` with the marked region replaced by the current table."""
    begin = document.find(TABLE_BEGIN)
    end = document.find(TABLE_END)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError(
            "document lacks the {} / {} markers".format(TABLE_BEGIN, TABLE_END)
        )
    return (
        document[: begin + len(TABLE_BEGIN)]
        + "\n"
        + markdown_table()
        + "\n"
        + document[end:]
    )


def main(argv: Optional[Tuple[str, ...]] = None) -> int:
    """``python -m repro.core.tunables [--update FILE]``.

    Prints the knob table, or rewrites the marked region of ``FILE`` in
    place (how ``docs/architecture.md`` stays in sync; pinned by
    ``tests/core/test_tunables.py``).
    """
    import sys

    args = list(argv if argv is not None else sys.argv[1:])
    if args[:1] == ["--update"]:
        if len(args) != 2:
            print("usage: python -m repro.core.tunables [--update FILE]", file=sys.stderr)
            return 2
        path = args[1]
        with open(path) as handle:
            document = handle.read()
        updated = render_into(document)
        if updated != document:
            with open(path, "w") as handle:
                handle.write(updated)
            print("{}: knob table updated".format(path))
        else:
            print("{}: knob table already current".format(path))
        return 0
    if args:
        print("usage: python -m repro.core.tunables [--update FILE]", file=sys.stderr)
        return 2
    print(markdown_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
