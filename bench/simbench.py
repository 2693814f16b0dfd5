"""The three simulator workloads and how one repeat of them is measured.

Each builder turns ``(seed, scale)`` into a ready-to-run
:class:`~repro.core.GageCluster` through the public surface only; the
seed reaches nothing but the arrival schedule that
:class:`~repro.workload.SyntheticWorkload` generates.
:func:`run_repeat` times ``GageCluster.run`` and reads every metric off
the finished cluster and the telemetry registry.  Simulated quantities
(latency, deviation, counts, the accounting digest) repeat exactly for a
seed; host quantities (throughput, CPU, set-up) do not.

Caches start empty (the first touch of each page on each node pays the
modelled disk) except in ``sim_flow_many_subs``, which prewarms them.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import resource
import time
from typing import Callable, Dict, Optional

from common import add_src_to_path, histogram_p50, metric_sum, percentile_ms, rss_mb
from layers import LayerProfile

add_src_to_path()
from repro import telemetry  # noqa: E402
from repro.core import GageCluster, GageConfig, Subscriber, metrics  # noqa: E402
from repro.harness.golden import accounting_digest  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.workload import SyntheticWorkload  # noqa: E402

#: One page of this size costs exactly one generic request (§3.1).
GENERIC_PAGE_BYTES = 2000
#: The paper's Figure 3 page; ≈3.07 generic requests, network-dominated.
FIG3_PAGE_BYTES = 6 * 1024
FIG3_GRP_PER_PAGE = 3.07
#: Averaging interval at which Figure 3's bound (<8 %) is checked.
FIG3_INTERVAL_S = 4.0
FIG3_WARMUP_S = 2.0


@dataclasses.dataclass
class SimCase:
    """A built cluster with its trace loaded, plus what was offered."""

    cluster: GageCluster
    #: GRPS reservation of every subscriber that sends traffic.
    reservations: Dict[str, float]
    #: Nominal offered rate (requests/s) per sending subscriber; a sender
    #: whose rate is within its reservation is *conforming*.
    rates: Dict[str, float]
    #: Requests actually offered per sending subscriber.
    offered: Dict[str, int]
    #: Arrivals stop here; the run continues to ``end_s`` to drain.
    offer_s: float
    end_s: float
    #: Latency is read over requests issued from here on: every credit
    #: balance starts at zero, so a subscriber's first request waits for
    #: one request's worth of credit — a start-up wait, not a steady one.
    warmup_s: float
    #: Report deviation from reservation (only meaningful when every
    #: sender is backlogged with spare allocation off).
    backlogged: bool = False


def _load(cluster: GageCluster, records: list) -> Dict[str, int]:
    """Schedule a trace; returns the requests offered per subscriber."""
    cluster.load_trace(records)
    offered: Dict[str, int] = {}
    for record in records:
        offered[record.host] = offered.get(record.host, 0) + 1
    return offered


def build_flow_fig3(seed: int, scale: float) -> SimCase:
    """Figure 3's loop: 4 backlogged subscribers, spare off, 1 s accounting."""
    offer_s = 120.0 * scale
    reservation = 150.0
    queue_capacity = 256
    names = ["site{}".format(i + 1) for i in range(4)]
    served_rate = reservation / FIG3_GRP_PER_PAGE
    rates = {name: 1.5 * served_rate for name in names}
    workload = SyntheticWorkload(
        rates=rates,
        duration_s=offer_s,
        file_bytes=FIG3_PAGE_BYTES,
        arrival="poisson",
        seed=seed,
    )
    cluster = GageCluster(
        Environment(),
        [Subscriber(name, reservation, queue_capacity=queue_capacity) for name in names],
        {name: workload.site_files(name) for name in names},
        num_rpns=8,
        config=GageConfig(accounting_cycle_s=1.0, spare_policy="none"),
        fidelity="flow",
        rpn_cache_bytes=64 * 1024 * 1024,
    )
    offered = _load(cluster, workload.generate())
    # A full queue drains at the reserved rate; leave time for all of it
    # so conservation can be checked exactly.
    drain_s = 1.35 * queue_capacity / served_rate
    return SimCase(
        cluster,
        {name: reservation for name in names},
        rates,
        offered,
        offer_s,
        offer_s + drain_s,
        FIG3_WARMUP_S,
        backlogged=True,
    )


def build_packet_splice(seed: int, scale: float) -> SimCase:
    """Packet fidelity: two conforming subscribers and one flooding at 3x."""
    offer_s = 16.0 * scale
    # 3 nodes carry 300 GRPS; 280 are reserved, so the flood can be given
    # 20 of spare on top of its 40 and the rest of its 120/s is refused.
    reservations = {"gold": 120.0, "silver": 120.0, "flood": 40.0}
    rates = {"gold": 40.0, "silver": 40.0, "flood": 120.0}
    workload = SyntheticWorkload(
        rates=rates,
        duration_s=offer_s,
        file_bytes=GENERIC_PAGE_BYTES,
        files_per_site=16,
        arrival="poisson",
        seed=seed,
    )
    cluster = GageCluster(
        Environment(),
        [Subscriber(name, grps, queue_capacity=64) for name, grps in reservations.items()],
        {name: workload.site_files(name) for name in reservations},
        num_rpns=3,
        config=GageConfig(),
        fidelity="packet",
    )
    offered = _load(cluster, workload.generate())
    return SimCase(cluster, reservations, rates, offered, offer_s, offer_s + 4.0, warmup_s=0.5)


def build_flow_many_subs(seed: int, scale: float) -> SimCase:
    """A long tail of parked subscribers; one in eight sends, conforming.

    8 nodes carry 800 GRPS: 250 senders reserve 2.4 each (600) and 1750
    parked subscribers 0.1 each (175).  Each sender sends exactly two
    requests 0.8 s apart — 1.25/s, well inside its reservation, so every
    request must be served and none should queue — starting at a phase
    of its own drawn from the seed.  (Poisson senders this small would
    make the request count, and with it every per-request figure, vary
    by ~5 % from seed to seed.)
    """
    period_s = 0.8
    # Every credit balance starts at zero and a sender this small needs
    # ~0.6 s to save up for one request, so nothing is offered before then:
    # the workload measures the steady state, not that start-up wait.
    lead_s = 0.65
    offer_s = lead_s + 2 * period_s  # two requests per sender
    registered = max(16, int(2000 * scale))
    names = ["tenant{:05d}".format(i) for i in range(registered)]
    rates = {name: 1.0 / period_s for name in names[::8]}
    workload = SyntheticWorkload(
        rates=rates,
        duration_s=2.5 * period_s,  # paced arrivals at 1 and 2 periods
        file_bytes=GENERIC_PAGE_BYTES,
        files_per_site=4,
        arrival="constant",
    )
    # Paced senders all start one period in; pull each one's requests
    # forward by its own phase so arrivals cover the whole window.
    rng = random.Random(seed)
    phase_s = {name: rng.uniform(0.0, period_s) for name in rates}
    records = sorted(
        (
            dataclasses.replace(
                record, at_s=lead_s + record.at_s - phase_s[record.host]
            )
            for record in workload.generate()
        ),
        key=lambda record: record.at_s,
    )
    files = workload.site_files(names[0])
    cluster = GageCluster(
        Environment(),
        [
            Subscriber(name, 2.4 if name in rates else 0.1, queue_capacity=64)
            for name in names
        ],
        {name: files for name in names},
        num_rpns=8,
        config=GageConfig(accounting_cycle_s=0.25),
        fidelity="flow",
        workers_per_site=1,
    )
    # Each sender makes two requests spread over 8 nodes, so with cold
    # caches nearly all of them would wait on a modelled disk; this
    # workload is about the per-subscriber bookkeeping, not the disk.
    cluster.prewarm_caches()
    offered = _load(cluster, records)
    return SimCase(
        cluster,
        {name: 2.4 for name in rates},
        rates,
        offered,
        offer_s,
        offer_s + 0.5,
        warmup_s=0.0,
    )


BUILDERS: Dict[str, Callable[[int, float], SimCase]] = {
    "sim_flow_fig3": build_flow_fig3,
    "sim_packet_splice": build_packet_splice,
    "sim_flow_many_subs": build_flow_many_subs,
}


# -- reading results off a finished run ------------------------------------------


def _ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _goodput(case: SimCase) -> Dict[str, object]:
    """Delivered / entitled per sender, in generic requests.

    A sender's traffic is conforming up to its reservation.  One whose
    nominal rate is within its reservation is entitled to everything it
    offered (completions during the drain count); one that offers more
    is entitled to the reserved rate while it is offering.
    """
    done: Dict[str, int] = {}
    delivered: Dict[str, float] = {}
    delivered_offering: Dict[str, float] = {}
    for at, host, weight in case.cluster.usage_events:
        done[host] = done.get(host, 0) + 1
        delivered[host] = delivered.get(host, 0.0) + weight
        if at <= case.offer_s:
            delivered_offering[host] = delivered_offering.get(host, 0.0) + weight
    ratios: Dict[str, float] = {}
    conforming = set()
    for name, reserved_grps in case.reservations.items():
        offered = case.offered.get(name, 0)
        if offered == 0:
            continue  # a Poisson sender may draw no arrival at all
        if not done.get(name):
            ratios[name] = 0.0
            continue
        grp_per_request = delivered[name] / done[name]
        if case.rates[name] * grp_per_request <= reserved_grps:
            conforming.add(name)
            ratios[name] = delivered[name] / (offered * grp_per_request)
        else:
            ratios[name] = delivered_offering.get(name, 0.0) / (
                reserved_grps * case.offer_s
            )
    return {"ratio": min(ratios.values()), "conforming": conforming}


def _deviation_pct(case: SimCase) -> Optional[float]:
    """Figure 3's metric at the 4 s interval, over what the RDN observed."""
    try:
        usage_log = case.cluster.rdn.accounting.usage_log
    except AttributeError:
        return None
    events: Dict[str, list] = {name: [] for name in case.reservations}
    for at, name, usage in usage_log:
        if name in events:
            events[name].append((at, usage))
    return metrics.deviation_from_reservation_vectors(
        events,
        case.reservations,
        case.warmup_s,
        case.offer_s,
        FIG3_INTERVAL_S,
        generic=case.cluster.config.generic_request,
    )


def _refused(cluster: GageCluster, snapshot: Dict[str, object]) -> int:
    """Requests turned away at a full subscriber queue."""
    if cluster.fidelity == "flow":
        return sum(1 for _at, _host, accepted in cluster.arrivals if not accepted)
    # Packet mode: the client sees a refused connection; the queue's own
    # drop counter says how many of the client's failures were refusals.
    client_failed = cluster.fleet.stats.failed
    drops = metric_sum(snapshot, "repro.core.queue_drops")
    return client_failed if drops is None else min(client_failed, int(drops))


def _net_packets(cluster: GageCluster) -> Optional[float]:
    switches = getattr(cluster, "switches", None)
    if switches is None:
        return None
    try:
        return float(sum(switch.forwarded + switch.flooded for switch in switches))
    except AttributeError:
        return None


def _cache_hit_ratio(cluster: GageCluster) -> Optional[float]:
    try:
        hits = sum(machine.cache.hits for machine in cluster.machines)
        misses = sum(machine.cache.misses for machine in cluster.machines)
    except AttributeError:
        return None
    return _ratio(float(hits), float(hits + misses))


def run_repeat(name: str, seed: int, scale: float, profile: bool) -> Dict[str, object]:
    """Build one fresh cluster, time its run, and read the results.

    Returns ``{"end_to_end", "layers", "counts", "extra", "attempted",
    "failed", "digest"}``; ``layers`` is ``None`` unless ``profile``.
    """
    telemetry.reset()  # counts below are per repeat
    gc.collect()  # the previous repeat's cluster is cyclic garbage; keep it out of this one's peak RSS
    setup_started = time.perf_counter()
    case = BUILDERS[name](seed, scale)
    setup_s = time.perf_counter() - setup_started
    cluster = case.cluster

    profiler = LayerProfile() if profile else None
    cpu_started = time.process_time()
    run_started = time.perf_counter()
    if profiler is not None:
        profiler.start()
    cluster.run(case.end_s)
    buckets = profiler.stop() if profiler is not None else None
    run_s = time.perf_counter() - run_started
    cpu_s = time.process_time() - cpu_started

    snapshot = telemetry.get_registry().snapshot()
    completed = len(cluster.completions)
    attempted = sum(case.offered.values())
    refused = _refused(cluster, snapshot)
    # Conservation: after the drain every offered request was either
    # completed or refused at its queue.  Anything else was lost.
    failed = attempted - completed - refused

    goodput = _goodput(case)
    conforming = goodput["conforming"]
    # Latency is read over the conforming senders (all of them when none
    # conforms): a flood's queueing delay is its own doing.
    latencies = [
        latency
        for at, host, latency in cluster.latencies
        if at - latency >= case.warmup_s and (not conforming or host in conforming)
    ]
    if completed == 0 or not latencies:
        raise RuntimeError("{}: the run completed no requests".format(name))

    end_to_end = {
        "setup_s": setup_s,
        "req_per_s": completed / run_s,
        "p50_ms": percentile_ms(latencies, 0.50),
        "p95_ms": percentile_ms(latencies, 0.95),
        "cpu_ms_per_req": 1e3 * cpu_s / completed,
        "peak_rss_mb": rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "conforming_goodput_ratio": goodput["ratio"],
    }
    events = metric_sum(snapshot, "repro.sim.events_dispatched")
    packets = _net_packets(cluster) if cluster.fidelity == "packet" else 0.0
    counts = {
        "sim.events": events,
        "sim.events_per_req": _ratio(events, completed),
        "sim.host_us_per_event": _ratio(1e6 * run_s, events),
        "sim.queue_depth_peak": metric_sum(snapshot, "repro.sim.queue_depth_peak"),
        "net.packets": packets,
        "net.packets_per_req": _ratio(packets, completed),
        "cluster.disk_ios": metric_sum(snapshot, "repro.cluster.disk_ios"),
        "cluster.cache_hit_ratio": _cache_hit_ratio(cluster),
        "core.wrr_cycles": metric_sum(snapshot, "repro.core.wrr_cycles"),
        "core.dispatches": metric_sum(snapshot, "repro.core.dispatches"),
        "core.accounting_messages": metric_sum(snapshot, "repro.core.accounting_messages"),
        "core.spare_rounds": metric_sum(snapshot, "repro.core.spare_rounds"),
        "core.queue_refused": metric_sum(snapshot, "repro.core.queue_drops"),
        "core.report_lag_p50_s": histogram_p50(snapshot, "repro.core.report_lag_s"),
    }
    extra = {
        "run_s": run_s,
        "simulated_s": case.end_s,
        "completed": completed,
        "refused": refused,
        "guarantee_dev_pct": _deviation_pct(case) if case.backlogged else None,
    }
    return {
        "end_to_end": end_to_end,
        "layers": buckets,
        "traced_wall_s": profiler.wall_s if profiler is not None else None,
        "counts": counts,
        "extra": extra,
        "attempted": attempted,
        "completed": completed,
        "failed": failed,
        "digest": accounting_digest(cluster),
    }
