"""The typed registry of Gage's tunable configuration knobs.

Every scalar field of :class:`~repro.core.config.GageConfig` is declared
here exactly once, with its type, legal range (or choice set), and a
one-line doc string.  Sweeps, the search harness
(:mod:`repro.harness.search`), and the generated knob-reference table in
``docs/architecture.md`` all read this registry, so a new config field
becomes sweepable, tunable, and documented by adding one declaration —
the ROADMAP's "tuned, not guessed" contract.

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
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.core.config import GageConfig

#: A knob value: every registered field is one of these.
TunableValue = Union[None, int, float, str]

#: Tunable kinds.
FLOAT = "float"
INT = "int"
CHOICE = "choice"

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
        The shipped default — must equal the dataclass default exactly
        (pinned by ``tests/core/test_tunables.py``).
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
    return (
        Tunable(
            "scheduling_cycle_s", FLOAT, 0.010,
            "Request scheduler polling period (§3.4).",
            lo=0.002, hi=0.05, log=True,
        ),
        Tunable(
            "accounting_cycle_s", FLOAT, 0.100,
            "RPN→RDN usage feedback period (§3.5); Figure 3's x-axis family.",
            lo=0.02, hi=2.0, log=True,
        ),
        Tunable(
            "credit_cap_cycles", FLOAT, 4.0,
            "Cap on a queue's positive balance, in cycles of its refill.",
            lo=1.0, hi=16.0,
        ),
        Tunable(
            "dispatch_window_s", FLOAT, None,
            "Predicted outstanding work allowed per RPN; `None` derives "
            "max(0.25, 2.5 × accounting cycle).",
            lo=0.05, hi=2.0, optional=True,
        ),
        Tunable(
            "spare_policy", CHOICE, "reservation",
            "Spare-capacity split (§4.1 / ablation A1).",
            choices=("reservation", "input_load", "none"),
        ),
        Tunable(
            "estimator_policy", CHOICE, "ewma",
            "Per-request usage prediction (ablation A2).",
            choices=("ewma", "last", "static"),
        ),
        Tunable(
            "node_policy", CHOICE, "least_load",
            "RPN selection (ablation A3; `locality` is §3.6).",
            choices=("least_load", "round_robin", "random", "locality"),
        ),
        Tunable(
            "estimator_alpha", FLOAT, 0.25,
            "EWMA weight of the newest usage sample.",
            lo=0.05, hi=1.0,
        ),
        Tunable(
            "conntable_linger_s", FLOAT, 2.0,
            "How long FIN/RST'd connection state lingers for retransmits.",
            lo=0.0, hi=10.0,
        ),
        Tunable(
            "heartbeat_miss_limit", INT, 3,
            "Accounting cycles of silence before an RPN is declared dead; "
            "`None` disables detection.",
            lo=1, hi=10, optional=True,
        ),
        Tunable(
            "delegate_timeout_s", FLOAT, 0.25,
            "Primary's wait for a secondary's HandshakeComplete.",
            lo=0.05, hi=2.0,
        ),
        Tunable(
            "secondary_failure_limit", INT, 2,
            "Consecutive delegation timeouts before a secondary is benched.",
            lo=1, hi=8,
        ),
        Tunable(
            "proxy_connect_timeout_s", FLOAT, 1.0,
            "Backend connect bound on the real-socket front end.",
            lo=0.1, hi=5.0,
        ),
        Tunable(
            "proxy_response_timeout_s", FLOAT, 5.0,
            "Backend response-head bound on the real-socket front end.",
            lo=0.5, hi=30.0,
        ),
        Tunable(
            "proxy_retry_backoff_s", FLOAT, 0.05,
            "Base delay before retrying on an alternate backend (doubles).",
            lo=0.0, hi=1.0,
        ),
        Tunable(
            "proxy_failure_threshold", INT, 3,
            "Consecutive failures before a backend is ejected.",
            lo=1, hi=10,
        ),
        Tunable(
            "proxy_probe_interval_s", FLOAT, 0.5,
            "Probe period for re-admitting an ejected backend.",
            lo=0.05, hi=5.0,
        ),
        Tunable(
            "proxy_pool_size", INT, 8,
            "Idle keep-alive connections kept per backend (0 disables).",
            lo=0, hi=64,
        ),
        Tunable(
            "proxy_pool_idle_s", FLOAT, 30.0,
            "Idle lifetime of a pooled backend connection.",
            lo=1.0, hi=120.0,
        ),
        Tunable(
            "proxy_keepalive_idle_s", FLOAT, 15.0,
            "Idle wait for the next request on a keep-alive client conn.",
            lo=1.0, hi=60.0,
        ),
        Tunable(
            "proxy_worker_miss_limit", INT, 3,
            "Missed report cycles before the supervisor restarts a worker.",
            lo=1, hi=10,
        ),
        Tunable(
            "hedge_policy", CHOICE, "off",
            "Tail-latency request cloning (extension; off preserves "
            "paper fidelity).",
            choices=("off", "fixed", "p95"),
        ),
        Tunable(
            "hedge_delay_s", FLOAT, 0.050,
            "Fixed hedge delay, and the p95 policy's cold-start fallback.",
            lo=0.005, hi=0.5, log=True,
        ),
        Tunable(
            "hedge_max_clones", INT, 1,
            "Upper bound on extra copies per request.",
            lo=1, hi=4,
        ),
        Tunable(
            "proxy_retry_budget", INT, None,
            "Token-bucket cap on proxy retries; `None` leaves them "
            "unbudgeted.",
            lo=0, hi=64, optional=True,
        ),
        Tunable(
            "proxy_retry_budget_refill_per_s", FLOAT, 1.0,
            "Retry tokens restored per second, up to the budget cap.",
            lo=0.0, hi=50.0,
        ),
        Tunable(
            "proxy_request_deadline_s", FLOAT, None,
            "Per-request deadline from admission; `None` disables.",
            lo=0.1, hi=30.0, optional=True,
        ),
        Tunable(
            "placement_policy", CHOICE, "off",
            "Online embedding + admission control (extension; off is the "
            "paper's admit-everything model).",
            choices=("off", "utilization", "profit"),
        ),
        Tunable(
            "placement_k_backup", INT, 1,
            "Backup RPNs reserved per placed subscriber.",
            lo=0, hi=3,
        ),
    )


#: The registry, in GageConfig field order: name → declaration.
REGISTRY: Dict[str, Tunable] = {tunable.name: tunable for tunable in _registry()}


def _topology_registry() -> Tuple[Tunable, ...]:
    """Knobs of :class:`repro.workload.topology.TopologyGenerator`.

    These are cluster-shape parameters, not :class:`GageConfig` fields,
    so they live in their own registry (and their own generated table)
    rather than in :data:`REGISTRY` — the coverage test pins the main
    registry to GageConfig exactly.  Defaults mirror the generator's
    builder defaults and are pinned by ``tests/workload``.
    """
    return (
        Tunable(
            "num_rpns", INT, 8,
            "Nodes in the generated cluster.",
            lo=1, hi=1024,
        ),
        Tunable(
            "avg_bandwidth_bps", FLOAT, 100e6,
            "Mean per-node access-link bandwidth.",
            lo=1e6, hi=10e9, log=True,
        ),
        Tunable(
            "var_bandwidth_bps", FLOAT, 0.0,
            "Gaussian spread of per-node link bandwidth (0 disables).",
            lo=0.0, hi=1e9,
        ),
        Tunable(
            "avg_latency_s", FLOAT, 20e-6,
            "Mean per-node access-link latency.",
            lo=0.0, hi=0.01,
        ),
        Tunable(
            "var_latency_s", FLOAT, 0.0,
            "Gaussian spread of per-node link latency (0 disables).",
            lo=0.0, hi=0.01,
        ),
        Tunable(
            "slow_link_fraction", FLOAT, 0.0,
            "Fraction of nodes placed on a degraded access link.",
            lo=0.0, hi=1.0,
        ),
        Tunable(
            "slow_link_bandwidth_bps", FLOAT, 10e6,
            "Bandwidth of the degraded links.",
            lo=1e6, hi=1e9, log=True,
        ),
        Tunable(
            "slow_link_latency_s", FLOAT, 100e-6,
            "Latency of the degraded links.",
            lo=0.0, hi=0.01,
        ),
        Tunable(
            "num_switches", INT, 1,
            "Switches in the fabric; nodes are striped round-robin and "
            "leaves uplink to the root.",
            lo=1, hi=64,
        ),
    )


#: Generator-knob registry: name → declaration (see ``_topology_registry``).
TOPOLOGY_REGISTRY: Dict[str, Tunable] = {
    tunable.name: tunable for tunable in _topology_registry()
}


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

#: Markers bounding the generated regions inside docs/architecture.md.
TABLE_BEGIN = "<!-- BEGIN GENERATED KNOB TABLE (python -m repro.core.tunables) -->"
TABLE_END = "<!-- END GENERATED KNOB TABLE -->"
TOPOLOGY_TABLE_BEGIN = (
    "<!-- BEGIN GENERATED TOPOLOGY KNOB TABLE (python -m repro.core.tunables) -->"
)
TOPOLOGY_TABLE_END = "<!-- END GENERATED TOPOLOGY KNOB TABLE -->"


def markdown_table(registry_map: Optional[Mapping[str, Tunable]] = None) -> str:
    """The knob-reference table, one row per registered tunable."""
    if registry_map is None:
        registry_map = REGISTRY
    lines = [
        "| Knob | Kind | Default | Legal values | What it does |",
        "|---|---|---|---|---|",
    ]
    for tunable in registry_map.values():
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


def _replace_region(document: str, begin_marker: str, end_marker: str, table: str) -> str:
    begin = document.find(begin_marker)
    end = document.find(end_marker)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError(
            "document lacks the {} / {} markers".format(begin_marker, end_marker)
        )
    return (
        document[: begin + len(begin_marker)]
        + "\n"
        + table
        + "\n"
        + document[end:]
    )


def render_into(document: str) -> str:
    """``document`` with the marked region(s) replaced by the current tables.

    The GageConfig knob table is mandatory; the topology-generator table
    is rendered only where its markers are present, so standalone docs
    with just the main markers keep working.
    """
    updated = _replace_region(document, TABLE_BEGIN, TABLE_END, markdown_table())
    if TOPOLOGY_TABLE_BEGIN in updated:
        updated = _replace_region(
            updated,
            TOPOLOGY_TABLE_BEGIN,
            TOPOLOGY_TABLE_END,
            markdown_table(TOPOLOGY_REGISTRY),
        )
    return updated


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
