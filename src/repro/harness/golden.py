"""Golden-digest determinism checks for the simulation hot path.

The engine refactors this repo performs (slotted events, callback heap
items, batched resource bookkeeping) are only admissible if a fixed-seed
run produces *identical accounting output* before and after.  This module
defines the canonical small scenario and its digest so the guarantee is
enforceable by a committed hash instead of by review.

The digest covers everything the paper's evaluation reads out of a run:
the RDN-observed accounting stream (``accounting.usage_log``), the
completion log, and per-request latencies.  Entries are serialized with
``repr`` (shortest round-trip float form, so any numeric change — even in
the last ulp — changes the digest) and canonically sorted, which makes
the digest insensitive to the one simulator-internal freedom the engine
does not pin down: the relative order of log appends that happen at the
exact same simulated instant on different nodes.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

from repro.core.config import GageConfig
from repro.core.simulation import GageCluster
from repro.core.subscriber import Subscriber
from repro.sim.engine import Environment
from repro.workload.synthetic import SyntheticWorkload

#: Bump only when the golden scenario itself (not the engine) changes.
SCENARIO = "golden-fig3/1"


def golden_fig3_cluster(
    duration_s: float = 3.0, seed: int = 7, config: Optional[GageConfig] = None
) -> GageCluster:
    """Run the canonical small Figure-3-style scenario and return the cluster.

    Two subscribers driven above reservation with spare allocation off, a
    100 ms accounting cycle, two RPNs, flow fidelity — small enough for a
    test, busy enough to exercise the CPU slicer, the disk channel, the
    credit scheduler, and the accounting walk.  ``config`` replaces the
    scenario's own (a 100 ms accounting cycle, spare off), e.g. to run
    the same trace with hedging on.
    """
    env = Environment()
    names = ["site1", "site2"]
    subscribers = [Subscriber(name, 120.0, queue_capacity=256) for name in names]
    if config is None:
        config = GageConfig(accounting_cycle_s=0.1, spare_policy="none")
    workload = SyntheticWorkload(
        rates={name: 60.0 for name in names},
        duration_s=duration_s,
        file_bytes=6 * 1024,
        arrival="poisson",
        seed=seed,
    )
    site_files = {name: workload.site_files(name) for name in names}
    cluster = GageCluster(
        env,
        subscribers,
        site_files,
        num_rpns=2,
        config=config,
        fidelity="flow",
        rpn_cache_bytes=8 * 1024 * 1024,
    )
    cluster.load_trace(workload.generate())
    cluster.run(duration_s)
    return cluster


def golden_packet_cluster(duration_s: float = 3.0, seed: int = 7) -> GageCluster:
    """Run the canonical small packet-fidelity scenario and return the cluster.

    Three RPNs under the default :class:`GageConfig`, two subscribers
    inside their reservation and one flooding at three times its own past
    an 8-deep queue, so every frame of the §3.2 splice (handshake
    emulation, dispatch order, remap, teardown), the refuse path and the
    RPN→RDN accounting frames cross simulated links.  The fig-3 scenario
    builds no :class:`~repro.net.link.Interface` at all; this is the run
    that notices a packet-path ulp or a reordered same-instant tie.
    """
    env = Environment()
    reservations = {"gold": 120.0, "silver": 120.0, "flood": 40.0}
    workload = SyntheticWorkload(
        rates={"gold": 40.0, "silver": 40.0, "flood": 120.0},
        duration_s=duration_s,
        file_bytes=2000,
        files_per_site=16,
        arrival="poisson",
        seed=seed,
    )
    subscribers = [
        Subscriber(name, grps, queue_capacity=8 if name == "flood" else 64)
        for name, grps in reservations.items()
    ]
    cluster = GageCluster(
        env,
        subscribers,
        {name: workload.site_files(name) for name in reservations},
        num_rpns=3,
        config=GageConfig(),
        fidelity="packet",
    )
    cluster.load_trace(workload.generate())
    cluster.run(duration_s)
    return cluster


def accounting_lines(cluster: GageCluster) -> List[str]:
    """The canonical serialized accounting output of a finished run."""
    lines = []
    for at, name, usage in cluster.rdn.accounting.usage_log:
        lines.append(
            "usage {!r} {} {!r} {!r} {!r}".format(
                at, name, usage.cpu_s, usage.disk_s, usage.net_bytes
            )
        )
    for at, host in cluster.completions:
        lines.append("done {!r} {}".format(at, host))
    for at, host, latency in cluster.latencies:
        lines.append("lat {!r} {} {!r}".format(at, host, latency))
    for at, host, ok in cluster.arrivals:
        lines.append("arr {!r} {} {}".format(at, host, ok))
    lines.sort()
    return lines


def accounting_digest(cluster: GageCluster) -> str:
    """SHA-256 over the canonical accounting output of a finished run."""
    payload = "\n".join([SCENARIO] + accounting_lines(cluster)).encode()
    return hashlib.sha256(payload).hexdigest()


def golden_fig3_digest(duration_s: float = 3.0, seed: int = 7) -> str:
    """Digest of the canonical scenario — what the golden test compares."""
    return accounting_digest(golden_fig3_cluster(duration_s=duration_s, seed=seed))
