"""The three real-socket workloads and how one repeat of them is measured.

One repeat starts a fresh rig — the proxy alone in one child process, two
back ends in another (:mod:`proxy_server`), the load generator in this
process — fetches every page once straight from the back ends (the
reference each proxied body is checked against), warms the path up, and
then measures one timed window.  All traffic crosses the loopback
interface: no link rate or wire latency is claimed.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from common import BENCH_DIR, WORK_DIR, add_src_to_path, metric_sum, percentile_ms, rss_mb
from loadgen import Exchange, LoadGenerator

add_src_to_path()
from repro.workload import SyntheticWorkload  # noqa: E402

HOST = "127.0.0.1"
#: How long a child may take to answer a control command.
CONTROL_TIMEOUT_S = 20.0
#: An open-loop window whose sends ran later than this (p95) is invalid.
MAX_LATE_P95_MS = 2.0
#: Requests sent straight to a back end to measure the no-proxy latency.
DIRECT_REQUESTS = 50


@dataclass(frozen=True)
class ProxySpec:
    """One real-socket workload."""

    name: str
    #: ``"closed"`` (keep-alive connections) or ``"open"`` (due times).
    mode: str
    body_bytes: int
    #: ``GageConfig`` keyword arguments for the proxy.
    config: Dict[str, float]
    #: Back-end service-time scale (0 = answer immediately).
    time_scale: float
    #: (name, reserved GRPS, queue capacity) per subscriber.
    subscribers: Tuple[Tuple[str, float, int], ...]
    #: Closed loop: keep-alive connections, each thinking for a seeded
    #: uniform 0..``think_max_s`` between response and next request.
    connections: int = 0
    think_max_s: float = 0.0
    #: Open loop: offered requests/s per subscriber.
    rates: Dict[str, float] = field(default_factory=dict)
    warmup_requests: int = 200
    warmup_s: float = 0.3


#: The existing data-plane rig values: a fast tick and a wide-open
#: dispatch window, so the data path is what is measured.
_DATA_PLANE = {"scheduling_cycle_s": 0.002, "accounting_cycle_s": 0.05, "dispatch_window_s": 60.0}

#: Back-to-back clients lock onto the proxy's 2 ms tick (itself rounded
#: to the selector's 1 ms): every latency is then one of two values and
#: ``p50_ms`` flips between them from run to run (20 % spread).  Thinking
#: for a random 0..3 ms spreads the sends over the tick's phases, so the
#: latency distribution is continuous and its quantiles are steady.
_THINK_MAX_S = 0.003

SPECS: Dict[str, ProxySpec] = {
    spec.name: spec
    for spec in (
        ProxySpec(
            "proxy_keepalive_small",
            "closed",
            2000,
            _DATA_PLANE,
            0.0,
            (("bench.example", 100_000.0, 4096),),
            connections=4,
            think_max_s=_THINK_MAX_S,
        ),
        ProxySpec(
            "proxy_keepalive_large",
            "closed",
            256 * 1024,
            _DATA_PLANE,
            0.0,
            (("bench.example", 100_000.0, 4096),),
            connections=4,
            think_max_s=_THINK_MAX_S,
        ),
        ProxySpec(
            "proxy_open_isolation",
            "open",
            2000,
            {},  # GageConfig() defaults: 10 ms scheduling, 100 ms accounting
            0.25,
            # A full flood queue adds its own drain (depth / served rate) to
            # every window; 32 keeps that under half a second.
            (("gold", 120.0, 64), ("flood", 40.0, 32)),
            rates={"gold": 100.0, "flood": 300.0},
        ),
    )
}


# -- child processes ----------------------------------------------------------------


class _Child:
    """One ``proxy_server.py`` process and its JSON-lines control pipe."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "proxy_server.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=dict(os.environ, TMPDIR=WORK_DIR),
            text=True,
        )
        self.ports: List[int] = []

    def start(self, params: Dict[str, object]) -> None:
        """Hand the child its role; returns once its servers listen."""
        self._send(params)
        self.ports = self._receive()["ports"]

    def _send(self, message: Dict[str, object]) -> None:
        self.process.stdin.write(json.dumps(message) + "\n")
        self.process.stdin.flush()

    def _receive(self) -> Dict[str, object]:
        ready, _, _ = select.select([self.process.stdout], [], [], CONTROL_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("benchmark child did not answer (exit code {})".format(self.process.poll()))
        return json.loads(line)

    def mark(self, profile: Optional[str] = None) -> Dict[str, object]:
        self._send({"cmd": "mark", "profile": profile})
        return self._receive()

    def stop(self) -> None:
        """Ask the child to stop; kill it if it does not."""
        try:
            if self.process.poll() is None:
                self._send({"cmd": "stop"})
                self.process.wait(timeout=CONTROL_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            self.process.stdin.close()
            self.process.stdout.close()


class Rig:
    """Back ends and proxy in their own processes, torn down on exit."""

    def __init__(self, spec: ProxySpec, sites: Dict[str, Dict[str, int]]) -> None:
        self.children: List[_Child] = []
        os.makedirs(WORK_DIR, exist_ok=True)
        try:
            # Both interpreters start (and import) at once; each then
            # waits on its stdin for its role.
            self.backends = self._spawn()
            self.proxy = self._spawn()
            self.backends.start(
                {"role": "backends", "count": 2, "sites": sites, "time_scale": spec.time_scale}
            )
            self.proxy.start(
                {
                    "role": "proxy",
                    "subscribers": spec.subscribers,
                    "backends": {
                        "backend{}".format(i): (HOST, port)
                        for i, port in enumerate(self.backends.ports)
                    },
                    "config": spec.config,
                }
            )
        except BaseException:
            self.close()
            raise
        self.backend_addresses = [(HOST, port) for port in self.backends.ports]
        self.address = (HOST, self.proxy.ports[0])

    def _spawn(self) -> _Child:
        child = _Child()
        self.children.append(child)
        return child

    def close(self) -> None:
        for child in reversed(self.children):
            child.stop()
        self.children = []
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    def __enter__(self) -> "Rig":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


# -- inputs ------------------------------------------------------------------------


def _sites(spec: ProxySpec) -> Dict[str, Dict[str, int]]:
    pages = SyntheticWorkload(
        rates={}, duration_s=1.0, file_bytes=spec.body_bytes, files_per_site=8
    ).site_files("")
    return {
        name: {"/" + page: size for page, size in pages.items()}
        for name, _grps, _capacity in spec.subscribers
    }


def _closed_requests(sites: Dict[str, Dict[str, int]], seed: int) -> Iterator[Tuple[str, str]]:
    """An endless seeded stream of (site, path) for the closed loops."""
    rng = random.Random(seed)
    choices = [(site, path) for site, pages in sorted(sites.items()) for path in sorted(pages)]
    while True:
        yield rng.choice(choices)


def _open_schedule(spec: ProxySpec, duration_s: float, seed: int) -> List[Tuple[float, str, str]]:
    """Due times for the open loop: paced per subscriber, jittered by the seed.

    Each subscriber's requests are evenly spaced at its rate and then
    moved by up to half a period either way.  Pacing keeps the offered
    rate exact and bursts short, so latency quantiles do not hinge on
    how bursty one seed's schedule happens to be (Poisson arrivals made
    ``p95_ms`` vary by ~30 % between seeds); the jitter keeps a sender
    whose period equals the scheduler's tick from locking onto one
    phase of it.
    """
    workload = SyntheticWorkload(
        rates=spec.rates,
        duration_s=duration_s,
        file_bytes=spec.body_bytes,
        files_per_site=8,
        arrival="constant",
    )
    rng = random.Random(seed)
    return [
        (
            record.at_s + rng.uniform(-0.5, 0.5) / spec.rates[record.host],
            record.host,
            record.path,
        )
        for record in workload.generate()
    ]


# -- measuring ---------------------------------------------------------------------


def _delta(after: Optional[Dict[str, float]], before: Optional[Dict[str, float]], key: str) -> Optional[float]:
    if after is None or before is None or key not in after or key not in before:
        return None
    return float(after[key] - before[key])


def _registry_delta(after: Dict[str, object], before: Dict[str, object], name: str) -> Optional[float]:
    """Growth of a registry counter (summed over labels) between two marks."""
    later = metric_sum(after["registry"], name)
    if later is None:
        return None
    return later - (metric_sum(before["registry"], name) or 0.0)


def _p50_ms(values: List[float]) -> float:
    """Median in ms; 0 when the window had no such phase (no connects)."""
    return percentile_ms(values, 0.5) if values else 0.0


class _Window:
    """One timed window against a running rig."""

    def __init__(self, spec: ProxySpec, rig: Rig, generator: LoadGenerator,
                 reference: Dict[Tuple[str, str], Tuple[int, bytes]],
                 requests: Iterator[Tuple[str, str]],
                 think: Optional[Callable[[], float]]) -> None:
        self.spec = spec
        self.rig = rig
        self.generator = generator
        self.reference = reference
        #: Closed loop only: the request stream and the clients' think time.
        self.requests = requests
        self.think = think

    def _good(self, exchange: Exchange) -> bool:
        """A 200 whose body has the announced length and the reference hash."""
        length, digest = self.reference[(exchange.site, exchange.path)]
        return (
            exchange.status == 200
            and exchange.announced == exchange.received == length
            and exchange.digest == digest
        )

    def measure(self, seed: int, window_s: float, profile: bool) -> Dict[str, object]:
        spec = self.spec
        before = self.rig.proxy.mark("start" if profile else None)
        backends_before = self.rig.backends.mark()
        generator_cpu = time.process_time()
        started = time.perf_counter()
        if spec.mode == "closed":
            records = self.generator.run_closed(
                self.requests, spec.connections, duration_s=window_s, think=self.think
            )
            elapsed = time.perf_counter() - started
            lateness: List[float] = []
        else:
            records, lateness = self.generator.run_open(_open_schedule(spec, window_s, seed))
            # From the first due time to the last answer: the span the
            # proxy needed to serve what one window offered, queue drain
            # included — a rate over the nominal window would read the
            # same on every run for as long as the proxy keeps up.
            elapsed = max(x.done for x in records) - min(x.due for x in records)
        generator_cpu = time.process_time() - generator_cpu
        after = self.rig.proxy.mark("stop" if profile else None)
        backends_after = self.rig.backends.mark()

        good = [x for x in records if self._good(x)]
        if not good:
            raise RuntimeError("{}: no request was served".format(spec.name))
        reservations = {name: grps for name, grps, _capacity in spec.subscribers}
        offered: Dict[str, int] = {}
        served: Dict[str, int] = {}
        for exchange in records:
            offered[exchange.site] = offered.get(exchange.site, 0) + 1
        for exchange in good:
            served[exchange.site] = served.get(exchange.site, 0) + 1
        # A subscriber offering more than it reserved may be refused with
        # 503 — by design, not a failure.  Everything else that is not a
        # verified 200 is one.
        flooding = {
            name for name, rate in spec.rates.items() if rate > reservations[name]
        }
        refused = [x for x in records if x.status == 503 and x.site in flooding]
        failed = len(records) - len(good) - len(refused)
        goodput = min(
            served.get(name, 0) / min(count, reservations[name] * window_s)
            for name, count in offered.items()
        )
        conforming = [x for x in good if x.site not in flooding]
        latencies = [x.latency_s for x in conforming]
        proxy_cpu_s = after["process_time"] - before["process_time"]

        end_to_end = {
            "req_per_s": len(good) / elapsed,
            "p50_ms": percentile_ms(latencies, 0.50),
            "p95_ms": percentile_ms(latencies, 0.95),
            "cpu_ms_per_req": 1e3 * proxy_cpu_s / len(good),
            "peak_rss_mb": rss_mb(after["maxrss_kb"]),
            "conforming_goodput_ratio": goodput,
        }
        stats_after, stats_before = after.get("stats"), before.get("stats")
        hits = _registry_delta(after, before, "repro.proxy.pool.hits")
        misses = _registry_delta(after, before, "repro.proxy.pool.misses")
        counts = {
            "proxy.frontend.accepted": _delta(stats_after, stats_before, "accepted"),
            "proxy.frontend.dispatched": _delta(stats_after, stats_before, "dispatched"),
            "proxy.frontend.completed": _delta(stats_after, stats_before, "completed"),
            "proxy.frontend.refused": _delta(stats_after, stats_before, "dropped_queue_full"),
            "proxy.frontend.keepalive_requests": _delta(stats_after, stats_before, "keepalive_requests"),
            "proxy.frontend.bytes_relayed": _delta(stats_after, stats_before, "bytes_relayed"),
            "proxy.backend_pool.hits": hits,
            "proxy.backend_pool.misses": misses,
            "proxy.backend_pool.hit_ratio": (
                hits / (hits + misses) if hits is not None and misses is not None and hits + misses else None
            ),
            "proxy.splice.sendfile_bodies": _delta(backends_after, backends_before, "sendfile_served"),
            "proxy.splice.sendmsg_writes": _delta(after.get("splice"), before.get("splice"), "sendmsg_writes"),
            "core.wrr_cycles": _registry_delta(after, before, "repro.core.wrr_cycles"),
            "core.dispatches": _registry_delta(after, before, "repro.core.dispatches"),
            "core.accounting_messages": _registry_delta(after, before, "repro.core.accounting_messages"),
            "core.spare_rounds": _registry_delta(after, before, "repro.core.spare_rounds"),
            "core.queue_refused": _registry_delta(after, before, "repro.core.queue_drops"),
            "loadgen.connect_p50_ms": _p50_ms(
                [x.connected - x.sent for x in good if x.connected is not None]
            ),
            "loadgen.ttfb_p50_ms": _p50_ms([x.first_byte - (x.connected or x.sent) for x in good]),
            "loadgen.body_p50_ms": _p50_ms([x.done - x.first_byte for x in good]),
            "loadgen.p99_ms": percentile_ms(latencies, 0.99),
            "loadgen.late_p95_ms": percentile_ms(lateness, 0.95) if lateness else 0.0,
            "loadgen.offered_rps_actual": len(records)
            / (window_s if spec.mode == "open" else elapsed),
            "loadgen.self_s": generator_cpu,
        }
        flood_served = sum(served.get(name, 0) for name in flooding)
        extra = {
            "window_s": elapsed,
            "mbytes_per_s": sum(x.received for x in good) / elapsed / 1e6,
            "p99_ms": counts["loadgen.p99_ms"],
            "refused_rps": len(refused) / elapsed,
            "excess_served_rps": flood_served / elapsed if flooding else None,
            "late_p95_ms": counts["loadgen.late_p95_ms"],
            "window_valid": counts["loadgen.late_p95_ms"] <= MAX_LATE_P95_MS,
        }
        return {
            "end_to_end": end_to_end,
            "layers": after.get("layers"),
            "traced_wall_s": after.get("traced_wall_s"),
            "counts": counts,
            "extra": extra,
            "attempted": len(records),
            "completed": len(good),
            "failed": failed,
        }


def _reference(rig: Rig, sites: Dict[str, Dict[str, int]]) -> Tuple[Dict[Tuple[str, str], Tuple[int, bytes]], float]:
    """Fetch every page from every back end directly; time the direct path.

    Returns ``{(site, path): (length, sha256)}`` and the median latency
    (ms) of the same request sent straight to a back end.  The fetch also
    touches every page on every back end, so no timed request is the
    first (uncached, disk-charged) access.
    """
    pages = [(site, path) for site, tree in sorted(sites.items()) for path in sorted(tree)]
    reference: Dict[Tuple[str, str], Tuple[int, bytes]] = {}
    direct_p50 = 0.0
    for address in rig.backend_addresses:
        direct = LoadGenerator(address)
        try:
            for exchange in direct.run_closed(iter(pages), 1, count=len(pages)):
                found = (exchange.received, exchange.digest)
                expected = sites[exchange.site][exchange.path]
                if exchange.status != 200 or exchange.received != expected:
                    raise RuntimeError("back end served {} wrongly".format(exchange.path))
                if reference.setdefault((exchange.site, exchange.path), found) != found:
                    raise RuntimeError("back ends disagree on {}".format(exchange.path))
            if address == rig.backend_addresses[0]:
                timed = direct.run_closed(
                    _closed_requests(sites, 0), 1, count=DIRECT_REQUESTS
                )
                direct_p50 = percentile_ms([x.latency_s for x in timed], 0.5)
        finally:
            direct.close()
    return reference, direct_p50


def run_repeat(
    name: str, seed: int, window_s: float, windows: int, profile: bool
) -> List[Dict[str, object]]:
    """One fresh rig and its timed windows.

    Returns one result per window: ``windows`` untraced ones, and with
    ``profile`` one more, traced, on the same rig.
    """
    spec = SPECS[name]
    setup_started = time.perf_counter()
    sites = _sites(spec)
    with Rig(spec, sites) as rig:
        reference, direct_p50 = _reference(rig, sites)
        generator = LoadGenerator(rig.address)
        try:
            requests = _closed_requests(sites, seed)
            rng = random.Random(seed)
            think = (lambda: rng.uniform(0.0, spec.think_max_s)) if spec.think_max_s else None
            if spec.mode == "closed":
                generator.run_closed(
                    requests, spec.connections, count=spec.warmup_requests, think=think
                )
            else:
                generator.run_open(_open_schedule(spec, spec.warmup_s, seed + 9))
            window = _Window(spec, rig, generator, reference, requests, think)
            setup_s = time.perf_counter() - setup_started
            results = [
                window.measure(seed + index, window_s, profile=False)
                for index in range(windows)
            ]
            if profile:
                results.append(window.measure(seed, window_s, profile=True))
        finally:
            generator.close()
    for result in results:
        result["end_to_end"]["setup_s"] = setup_s
        result["counts"]["loadgen.direct_p50_ms"] = direct_p50
        result["counts"]["proxy.added_p50_ms"] = result["end_to_end"]["p50_ms"] - direct_p50
    return results
