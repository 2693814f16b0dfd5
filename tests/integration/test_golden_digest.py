"""The golden-digest determinism gate.

``golden_fig3.sha256`` was computed from the pre-refactor engine
(dataclass packets, Event-per-``call_later``, per-slice CPU processes).
Every later engine change must reproduce it byte-for-byte: same
accounting stream, same completions, same latencies, down to the last
float ulp.  If an intentional *semantic* change to the scenario ever
lands (new workload model, different topology), recompute the digest
with ``python -m repro.harness.golden`` style driver below and say so
loudly in the commit message — never update this file to paper over an
unexplained mismatch.

``golden_packet.sha256`` is the same gate for the packet path: it was
recorded with the ``Store``-and-process link transmitter (the parent of
the callback transmitter in ``repro.net.link``), so a reordered
same-instant tie or a re-associated ``now + delay`` on any hop fails here.

``golden_hedged.sha256`` pins the hedged flow path: the fig-3 scenario
with a fixed 20 ms hedge delay, recorded before the proxy and the RDN
shared one hedge manager, so the clone charge, the loser's cancel and
its refund keep their exact order and floats.
"""

import importlib
from pathlib import Path

from repro.core.config import GageConfig
from repro.harness.golden import (
    SCENARIO,
    accounting_digest,
    accounting_lines,
    golden_fig3_cluster,
    golden_packet_cluster,
)

GOLDEN_FILE = Path(__file__).with_name("golden_fig3.sha256")
GOLDEN_PACKET_FILE = Path(__file__).with_name("golden_packet.sha256")
GOLDEN_HEDGED_FILE = Path(__file__).with_name("golden_hedged.sha256")


def test_engine_modules_run_from_source():
    # Python's file finder prefers an extension module over the .py next
    # to it, so a leftover build of one of these would run (and be what
    # the digests below measure) instead of the source in the tree.
    origins = [
        importlib.import_module(name).__file__
        for name in (
            "repro.sim.events",
            "repro.sim.process",
            "repro.sim.engine",
            "repro.net.packet",
            "repro.net.tcp",
        )
    ]
    stale = [origin for origin in origins if not origin.endswith(".py")]
    assert not stale, (
        "not loaded from source: {} — delete stale extensions: "
        "find src -name '*.so' -delete".format(stale)
    )


def test_fixed_seed_run_matches_committed_digest():
    committed = GOLDEN_FILE.read_text().strip()
    cluster = golden_fig3_cluster()
    assert accounting_digest(cluster) == committed, (
        "fixed-seed accounting output diverged from the committed golden "
        "digest ({}) — the engine is no longer bit-exact".format(SCENARIO)
    )


def test_packet_fidelity_run_matches_committed_digest():
    committed = GOLDEN_PACKET_FILE.read_text().strip()
    cluster = golden_packet_cluster()
    assert accounting_digest(cluster) == committed, (
        "fixed-seed packet-fidelity output diverged from the committed "
        "golden digest — the packet path is no longer bit-exact"
    )
    # The scenario must keep reaching what it exists to cover: frames on
    # the wire, completions on all three subscribers, and refusals.
    stats = cluster.fleet.stats
    assert stats.completed > 300 and stats.failed > 100
    assert {host for _at, host in cluster.completions} == {"gold", "silver", "flood"}
    assert sum(switch.forwarded for switch in cluster.switches) > 5000


def test_hedged_run_matches_committed_digest():
    committed = GOLDEN_HEDGED_FILE.read_text().strip()
    config = GageConfig(
        accounting_cycle_s=0.1,
        spare_policy="none",
        hedge_policy="fixed",
        hedge_delay_s=0.02,
    )
    cluster = golden_fig3_cluster(config=config)
    assert accounting_digest(cluster) == committed, (
        "fixed-seed hedged output diverged from the committed golden "
        "digest — a clone's charge, cancel or refund moved"
    )
    # The scenario must keep cloning, or the digest pins nothing hedged.
    assert cluster.rdn.hedges._tm_fired.value > 100


def test_golden_run_produces_substantial_output():
    # Guard against the scenario silently degenerating (e.g. the workload
    # no longer reaching the back ends) while the digest still "matches"
    # a trivially empty log.
    cluster = golden_fig3_cluster()
    lines = accounting_lines(cluster)
    assert len(lines) > 500
    kinds = {line.split(" ", 1)[0] for line in lines}
    assert kinds == {"arr", "done", "lat", "usage"}


def test_digest_is_order_canonical():
    # The digest must not depend on log append order for same-instant
    # entries: serialization sorts, so two identical runs always agree.
    a = golden_fig3_cluster()
    b = golden_fig3_cluster()
    assert accounting_lines(a) == accounting_lines(b)
    assert accounting_digest(a) == accounting_digest(b)
