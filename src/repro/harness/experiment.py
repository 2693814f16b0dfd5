"""Experiment runners for the paper's evaluation section.

Every runner assembles a fresh :class:`~repro.core.simulation.GageCluster`
(flow fidelity — the QoS dynamics are transport-independent and the long
runs would gain nothing from per-packet simulation), drives a workload,
and returns structured results the benchmarks print alongside the
paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines.besteffort import BestEffortDispatcher
from repro.cluster.filesystem import FileSystem
from repro.cluster.machine import Machine
from repro.cluster.webserver import WebServer, site_docroot
from repro.core.config import GageConfig
from repro.core.metrics import (
    ServiceReport,
    deviation_from_reservation_vectors,
)
from repro.core.simulation import GageCluster
from repro.core.subscriber import Subscriber
from repro.sim.engine import Environment
from repro.workload.request import CostModel
from repro.workload.specweb import SpecWeb99Config, SpecWeb99Workload
from repro.workload.synthetic import SyntheticWorkload

#: Page size for which the default cost model yields exactly one generic
#: request of work (§3.1's 2000 network bytes).
GENERIC_PAGE_BYTES = 2000

#: Cost model for the §4.3 scalability experiment: cheap cached pages so
#: one RPN saturates around the paper's 540 requests/sec (the 56.7 µs
#: Gage overhead on top brings 556/s down to ~539/s, the ~1.8-3% penalty
#: of §4.3).
SCALABILITY_COST_MODEL = CostModel(
    base_cpu_s=0.0017, per_kb_cpu_s=0.00005, seek_s=0.0098, transfer_bps=20e6
)


# ---------------------------------------------------------------------------
# Table 1 — performance isolation under excessive input load
# ---------------------------------------------------------------------------

def run_isolation(
    reservations: Optional[Dict[str, float]] = None,
    input_rates: Optional[Dict[str, float]] = None,
    num_rpns: int = 8,
    duration_s: float = 12.0,
    warmup_s: float = 2.0,
    queue_capacity: int = 64,
    config: Optional[GageConfig] = None,
) -> List[ServiceReport]:
    """Run the Table 1 (or Table 2) scenario and report per-site rates.

    Defaults reproduce Table 1: three subscribers with reservations
    250/150/50 GRPS; site1 and site2 offered ≈ their reservations, site3
    offered far beyond its reservation.
    """
    reservations = reservations or {"site1": 250.0, "site2": 150.0, "site3": 50.0}
    input_rates = input_rates or {"site1": 259.4, "site2": 161.1, "site3": 390.3}
    env = Environment()
    subscribers = [
        Subscriber(name, grps, queue_capacity=queue_capacity)
        for name, grps in reservations.items()
    ]
    workload = SyntheticWorkload(
        rates=input_rates, duration_s=duration_s, file_bytes=GENERIC_PAGE_BYTES
    )
    site_files = {name: workload.site_files(name) for name in reservations}
    cluster = GageCluster(
        env,
        subscribers,
        site_files,
        num_rpns=num_rpns,
        config=config,
        fidelity="flow",
    )
    cluster.load_trace(workload.generate())
    cluster.run(duration_s)
    return cluster.all_reports(warmup_s, duration_s)


def run_spare_allocation(
    num_rpns: int = 8,
    duration_s: float = 12.0,
    warmup_s: float = 2.0,
    spare_policy: str = "reservation",
) -> List[ServiceReport]:
    """Run the Table 2 scenario: two subscribers, both overloaded.

    The paper's cluster delivered ≈765 GRPS; ours delivers ≈800, so the
    offered loads are scaled up so that both sites' demand exceeds their
    proportional spare share and the split is visible.
    """
    config = GageConfig(spare_policy=spare_policy)
    return run_isolation(
        reservations={"site1": 250.0, "site2": 200.0},
        input_rates={"site1": 470.0, "site2": 410.0},
        num_rpns=num_rpns,
        duration_s=duration_s,
        warmup_s=warmup_s,
        queue_capacity=64,
        config=config,
    )


# ---------------------------------------------------------------------------
# Figure 3 — deviation from ideal reservation vs accounting cycle
# ---------------------------------------------------------------------------

@dataclass
class DeviationCurve:
    """One Figure-3 series: accounting cycle → deviation per interval."""

    accounting_cycle_s: float
    workload: str
    #: averaging interval (s) → mean deviation from reservation (%).
    by_interval: Dict[float, float] = field(default_factory=dict)

    def series(self) -> List[Tuple[float, float]]:
        """(interval, deviation%) sorted by interval."""
        return sorted(self.by_interval.items())


def run_deviation_experiment(
    accounting_cycle_s: float,
    intervals_s: Optional[List[float]] = None,
    workload: str = "synthetic",
    num_rpns: int = 8,
    duration_s: float = 42.0,
    warmup_s: float = 2.0,
    reservation_grps: float = 150.0,
    num_subscribers: int = 4,
    seed: int = 0,
    hedge_policy: Optional[str] = None,
    hedge_delay_s: Optional[float] = None,
) -> DeviationCurve:
    """Measure deviation-from-reservation at one accounting cycle.

    The workload is the paper's: constant-rate accesses to 6 KB files
    (``workload="synthetic"``) or a SPECWeb99-shaped trace
    (``workload="specweb"``).  Subscribers are driven above their
    reservations with spare allocation disabled, so the delivered usage
    should ideally equal the reservation exactly; what remains is the
    noise introduced by feedback staleness — Figure 3's subject.

    Deviation is computed over the usage reports the RDN actually
    receives (``accounting.usage_log``), matching the paper's
    observation that with a 2 s cycle and 1 s window the observed usage
    "is either 0 or around twice the reservation".
    """
    if workload not in ("synthetic", "specweb"):
        raise ValueError("unknown workload: {!r}".format(workload))
    intervals_s = intervals_s or [1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    env = Environment()
    names = ["site{}".format(i + 1) for i in range(num_subscribers)]
    subscribers = [
        Subscriber(name, reservation_grps, queue_capacity=2048) for name in names
    ]
    # Hedge knobs pass straight through so the fig3-style deviation run
    # can be repeated with cloning on — the guarantee check behind
    # BENCH_proxy_hedged.  All default to GageConfig's (hedging off).
    hedge_kwargs: Dict[str, object] = {}
    if hedge_policy is not None:
        hedge_kwargs["hedge_policy"] = hedge_policy
    if hedge_delay_s is not None:
        hedge_kwargs["hedge_delay_s"] = hedge_delay_s
    config = GageConfig(
        accounting_cycle_s=accounting_cycle_s,
        spare_policy="none",
        **hedge_kwargs,  # type: ignore[arg-type]
    )

    site_files: Dict[str, Dict[str, int]] = {}
    records = []
    if workload == "synthetic":
        # 6 KB pages (§4.1); one page ≈ 3.07 generic requests, dominated
        # by the network dimension, so the sustainable request rate is
        # reservation/3.07; offer ~1.5x that to keep queues backlogged.
        per_site_rate = reservation_grps / 3.07 * 1.5
        synthetic = SyntheticWorkload(
            rates={name: per_site_rate for name in names},
            duration_s=duration_s,
            file_bytes=6 * 1024,
            seed=seed,
        )
        site_files = {name: synthetic.site_files(name) for name in names}
        records = synthetic.generate()
    else:
        # SPECWeb99 static-GET mix over classes 0-2.  Class 3 (1% of
        # requests, 100-900 KB) is excluded here: one such request costs
        # whole *seconds* of a mid-size reservation's credit, which makes
        # any 10 ms-granularity metering meaningless at these reservation
        # scales; the paper does not state its absolute configuration.
        # Classes 0-2 preserve the high request-to-request variance the
        # experiment is about (0.1-90 KB, ~3 orders of magnitude).
        spec_config = SpecWeb99Config(
            directories=10, class_probabilities=(0.35, 0.50, 0.15, 0.0)
        )
        for index, name in enumerate(names):
            generator = SpecWeb99Workload(spec_config, seed=seed + index)
            site_files[name] = generator.site_files()
            mean_generics = generator.mean_request_bytes() / 2000.0
            per_site_rate = reservation_grps / mean_generics * 1.5
            records.extend(
                generator.generate(name, per_site_rate, duration_s, arrival="poisson")
            )
        records.sort(key=lambda record: record.at_s)

    cluster = GageCluster(
        env,
        subscribers,
        site_files,
        num_rpns=num_rpns,
        config=config,
        fidelity="flow",
        rpn_cache_bytes=64 * 1024 * 1024,
    )
    cluster.load_trace(records)
    cluster.run(duration_s)

    # Usage as observed by the RDN through accounting messages.  Window
    # the usage *vectors* and convert each window to generic requests
    # (the max-norm is not additive across cycles; see metrics docs).
    events = {name: [] for name in names}
    for at, name, usage in cluster.rdn.accounting.usage_log:
        events[name].append((at, usage))
    reservations = {name: reservation_grps for name in names}
    curve = DeviationCurve(accounting_cycle_s=accounting_cycle_s, workload=workload)
    for interval in intervals_s:
        curve.by_interval[interval] = deviation_from_reservation_vectors(
            events,
            reservations,
            warmup_s,
            duration_s,
            interval,
            generic=config.generic_request,
        )
    return curve


# ---------------------------------------------------------------------------
# §4.3 — scalability with the number of RPNs, and the Gage penalty
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalabilityPoint:
    """Measured throughput at one cluster size."""

    num_rpns: int
    with_gage_rps: float
    without_gage_rps: float

    @property
    def penalty_percent(self) -> float:
        """Throughput cost of Gage's QoS machinery, %."""
        if self.without_gage_rps <= 0:
            return 0.0
        return 100.0 * (1.0 - self.with_gage_rps / self.without_gage_rps)


def _scalability_gage_run(
    num_rpns: int, duration_s: float, warmup_s: float, per_rpn_target_rps: float
) -> float:
    env = Environment()
    offered = per_rpn_target_rps * num_rpns * 1.15
    names = ["site{}".format(i + 1) for i in range(4)]
    # Reservations sum past the offered load so the credit scheduler is
    # never the limit — §4.3 measures raw capacity with QoS in place.
    per_site_reservation = offered / len(names) * 1.1
    subscribers = [
        Subscriber(name, per_site_reservation, queue_capacity=512) for name in names
    ]
    workload = SyntheticWorkload(
        rates={name: offered / len(names) for name in names},
        duration_s=duration_s,
        file_bytes=GENERIC_PAGE_BYTES,
    )
    cluster = GageCluster(
        env,
        subscribers,
        {name: workload.site_files(name) for name in names},
        num_rpns=num_rpns,
        fidelity="flow",
        cost_model=SCALABILITY_COST_MODEL,
        workers_per_site=8,
    )
    cluster.prewarm_caches()
    cluster.load_trace(workload.generate())
    cluster.run(duration_s)
    served = sum(
        1 for at, _host in cluster.completions if warmup_s <= at < duration_s
    )
    return served / (duration_s - warmup_s)


def _scalability_baseline_run(
    num_rpns: int, duration_s: float, warmup_s: float, per_rpn_target_rps: float
) -> float:
    env = Environment()
    offered = per_rpn_target_rps * num_rpns * 1.15
    names = ["site{}".format(i + 1) for i in range(4)]
    workload = SyntheticWorkload(
        rates={name: offered / len(names) for name in names},
        duration_s=duration_s,
        file_bytes=GENERIC_PAGE_BYTES,
    )
    fs = FileSystem()
    for name in names:
        fs.add_tree(site_docroot(name), workload.site_files(name))
    webservers = []
    for index in range(num_rpns):
        machine = Machine(env, "rpn{}".format(index), fs=fs)
        server = WebServer(
            machine,
            cost_model=SCALABILITY_COST_MODEL,
            workers_per_site=8,
            overhead_cpu_s=0.0,  # no Gage layer
        )
        for name in names:
            server.host_site(name)
        for path, size in fs.walk():
            machine.cache.insert(path, size)
        webservers.append(server)
    dispatcher = BestEffortDispatcher(env, webservers)
    dispatcher.load_trace(workload.generate())
    env.run(until=duration_s)
    return dispatcher.completed_rate(warmup_s, duration_s)


def run_scalability(
    rpn_counts: Optional[List[int]] = None,
    duration_s: float = 6.0,
    warmup_s: float = 1.0,
    per_rpn_target_rps: float = 550.0,
) -> List[ScalabilityPoint]:
    """Throughput vs cluster size, with and without Gage (§4.3)."""
    rpn_counts = rpn_counts or [1, 2, 3, 4, 5, 6, 7, 8]
    points = []
    for count in rpn_counts:
        with_gage = _scalability_gage_run(
            count, duration_s, warmup_s, per_rpn_target_rps
        )
        without = _scalability_baseline_run(
            count, duration_s, warmup_s, per_rpn_target_rps
        )
        points.append(
            ScalabilityPoint(
                num_rpns=count, with_gage_rps=with_gage, without_gage_rps=without
            )
        )
    return points
