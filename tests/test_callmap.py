"""Static drift check of ``docs/callmap.json`` against the functions in ``src/``.

The map itself is recorded by ``scripts/callmap.py`` (tens of minutes);
this test only re-reads ``src/`` with :mod:`ast` and compares keys, so it
stays well under a second.
"""

import functools
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAP = ROOT / "docs" / "callmap.json"


def load_callmap_script():
    spec = importlib.util.spec_from_file_location("callmap", ROOT / "scripts" / "callmap.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CALLMAP = load_callmap_script()
STALE = "docs/callmap.json is stale: {}.  Regenerate it with `{}` and give every unreached function a reason."


@functools.cache
def recorded():
    return json.loads(MAP.read_text(encoding="utf-8"))


@functools.cache
def src_keys():
    return frozenset(CALLMAP.function_keys())


def test_every_function_in_src_has_a_map_entry():
    missing = sorted(src_keys() - set(recorded()["functions"]))
    assert not missing, STALE.format("not in the map: " + ", ".join(missing), CALLMAP.REGENERATE)


def test_every_map_entry_names_a_function_in_src():
    gone = sorted(set(recorded()["functions"]) - src_keys())
    assert not gone, STALE.format("no longer in src/: " + ", ".join(gone), CALLMAP.REGENERATE)


def test_every_unreached_function_is_justified():
    data = recorded()
    unjustified = [key for key in data["unreached"] if not data["reasons"].get(key, "").strip()]
    assert not unjustified, STALE.format("unreached without a reason: " + ", ".join(unjustified), CALLMAP.REGENERATE)


def test_the_lists_agree_with_the_per_function_entries():
    data = recorded()
    functions = data["functions"]
    assert data["unreached"] == sorted(key for key, entries in functions.items() if not entries)
    assert data["tests_only"] == sorted(key for key, entries in functions.items() if entries == ["tests"])
    assert all(key in functions for key in data["reasons"])


def test_worker_subprocesses_were_recorded():
    """Functions that run only in proxy worker processes are reached from
    the tier-1 entry, or the map missed child processes."""
    data = recorded()
    for key in CALLMAP.SELF_CHECK:
        assert "tests" in data["functions"][key], key
        assert data["self_check"][key] is True
