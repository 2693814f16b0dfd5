"""The tunable registry stays consistent with GageConfig and the docs."""

import random
import re
from dataclasses import fields as dataclass_fields
from pathlib import Path

import pytest

from repro.core import tunables
from repro.core.config import GageConfig
from repro.core.tunables import Tunable
from repro.harness import search

ROOT = Path(__file__).resolve().parents[2]
DOCS = ROOT / "docs" / "architecture.md"

#: Where a config field's setter may live, outside the library itself.
SETTER_DIRS = ("bench", "benchmarks", "scripts", "examples", "configs")


def test_registry_covers_every_config_field():
    declared = set(tunables.registry())
    config_fields = {f.name for f in dataclass_fields(GageConfig)}
    missing = config_fields - declared - tunables.EXCLUDED_FIELDS
    assert not missing, "GageConfig fields without a tunable declaration: {}".format(
        sorted(missing)
    )
    stray = declared - config_fields
    assert not stray, "tunables without a GageConfig field: {}".format(sorted(stray))
    assert tunables.EXCLUDED_FIELDS == {"generic_request"}


def test_every_config_field_has_a_setter():
    """A GageConfig field stays only if an entry point or a search sets it."""
    text = "\n".join(
        path.read_text()
        for directory in SETTER_DIRS
        for path in sorted((ROOT / directory).rglob("*"))
        if path.suffix in (".py", ".json", ".jsonl")
    )
    searched = {name for space in search.SPACES.values() for name in space.names()}
    unset = [
        field.name
        for field in dataclass_fields(GageConfig)
        if field.name not in searched
        and not re.search(r"\b{}\b".format(field.name), text)
    ]
    assert not unset, "GageConfig fields nothing sets: {}".format(unset)


def test_registry_defaults_match_dataclass_defaults():
    for field in dataclass_fields(GageConfig):
        if field.name in tunables.EXCLUDED_FIELDS:
            continue
        assert tunables.get(field.name).default == field.default, field.name


def test_registry_order_matches_dataclass_order():
    assert tuple(tunables.registry()) == tunables.config_field_names()


def test_defaults_construct_the_default_config():
    assert tunables.config_from_params(tunables.defaults()) == GageConfig()
    assert tunables.config_from_params({}) == GageConfig()


def test_sampled_params_always_construct_a_valid_config():
    rng = random.Random(20030900)
    for _ in range(100):
        params = {t.name: t.sample(rng) for t in tunables.registry().values()}
        tunables.config_from_params(params)


def test_mutation_stays_legal_and_is_seed_deterministic():
    rng = random.Random(9)
    for tunable in tunables.registry().values():
        value = tunable.sample(rng)
        for _ in range(25):
            value = tunable.mutate(value, rng)
            tunable.validate(value)
    a = {t.name: t.sample(random.Random(5)) for t in tunables.registry().values()}
    b = {t.name: t.sample(random.Random(5)) for t in tunables.registry().values()}
    assert a == b


def test_validate_rejects_out_of_range_and_unknown():
    with pytest.raises(ValueError):
        tunables.get("estimator_alpha").validate(2.0)
    with pytest.raises(ValueError):
        tunables.get("spare_policy").validate("bogus")
    with pytest.raises(ValueError):
        tunables.get("hedge_max_clones").validate(None)  # not optional
    tunables.get("dispatch_window_s").validate(None)  # optional
    with pytest.raises(KeyError):
        tunables.get("no_such_knob")
    with pytest.raises(ValueError):
        tunables.validate_params({"credit_cap_cycles": 0.5})


def test_int_tunables_reject_floats():
    with pytest.raises(ValueError):
        tunables.get("hedge_max_clones").validate(1.5)


def test_declaration_errors_are_caught_at_construction():
    with pytest.raises(ValueError):
        Tunable("x", "float", 1.0, "no bounds")
    with pytest.raises(ValueError):
        Tunable("x", "choice", "a", "no choices")
    with pytest.raises(ValueError):
        Tunable("x", "choice", "c", "bad default", choices=("a", "b"))
    with pytest.raises(ValueError):
        Tunable("x", "float", 0.5, "log needs >0", lo=0.0, hi=1.0, log=True)
    with pytest.raises(ValueError):
        Tunable("x", "banana", 1.0, "bad kind", lo=0.0, hi=2.0)


def test_docs_knob_table_is_current():
    document = DOCS.read_text()
    assert tunables.render_into(document) == document, (
        "docs/architecture.md knob table is stale; run "
        "PYTHONPATH=src python -m repro.core.tunables --update docs/architecture.md"
    )


def test_render_into_requires_markers():
    with pytest.raises(ValueError):
        tunables.render_into("no markers here")


def test_cli_prints_table(capsys):
    assert tunables.main(()) == 0
    out = capsys.readouterr().out
    assert "`scheduling_cycle_s`" in out and "`hedge_max_clones`" in out


def test_cli_update_roundtrip(tmp_path, capsys):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "before\n{}\nstale\n{}\nafter\n".format(
            tunables.TABLE_BEGIN, tunables.TABLE_END
        )
    )
    assert tunables.main(("--update", str(doc))) == 0
    first = doc.read_text()
    assert tunables.markdown_table() in first
    assert tunables.main(("--update", str(doc))) == 0
    assert doc.read_text() == first
    assert "already current" in capsys.readouterr().out
