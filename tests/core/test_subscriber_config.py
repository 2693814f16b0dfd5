"""Tests for Subscriber and GageConfig validation."""

import re
from dataclasses import fields as dataclass_fields
from pathlib import Path

import pytest

from repro.core import GageConfig, Subscriber
from repro.core.grps import ResourceVector

ROOT = Path(__file__).resolve().parents[2]

#: Where a config field's setter may live, outside the library itself.
SETTER_DIRS = ("bench", "benchmarks", "scripts", "examples")


def test_subscriber_reservation_vector():
    sub = Subscriber("site1", reservation_grps=100)
    vec = sub.reservation_vector()
    assert vec == ResourceVector(1.0, 1.0, 200_000)


def test_subscriber_validation():
    with pytest.raises(ValueError):
        Subscriber("x", reservation_grps=-1)
    with pytest.raises(ValueError):
        Subscriber("x", reservation_grps=10, queue_capacity=0)


def test_config_defaults_match_paper():
    config = GageConfig()
    assert config.scheduling_cycle_s == 0.010  # §3.4: "10 msec"
    assert config.generic_request.cpu_s == 0.010


def test_config_validation():
    with pytest.raises(ValueError):
        GageConfig(scheduling_cycle_s=0)
    with pytest.raises(ValueError):
        GageConfig(accounting_cycle_s=-1)
    with pytest.raises(ValueError):
        GageConfig(dispatch_window_s=0)
    with pytest.raises(ValueError):
        GageConfig(spare_policy="bogus")
    with pytest.raises(ValueError):
        GageConfig(estimator_policy="bogus")
    with pytest.raises(ValueError):
        GageConfig(node_policy="bogus")


def test_every_config_field_has_a_setter():
    """A GageConfig field stays only if an entry point sets it."""
    text = "\n".join(
        path.read_text()
        for directory in SETTER_DIRS
        for path in sorted((ROOT / directory).rglob("*"))
        if path.suffix in (".py", ".json", ".jsonl")
    )
    unset = [
        field.name
        for field in dataclass_fields(GageConfig)
        if not re.search(r"\b{}\b".format(field.name), text)
    ]
    assert not unset, "GageConfig fields nothing sets: {}".format(unset)
