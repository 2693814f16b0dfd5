"""The multi-worker proxy: spawn, credit wire protocol, crash recovery,
and the global per-subscriber guarantee under overload.

The integration tests here start real worker *processes* (via
``python -m repro.proxy.worker_main``) sharing one ``SO_REUSEPORT``
port, so they are the slowest in the proxy suite — each pays one or
more interpreter start-ups.
"""

import asyncio
import os
import pickle
import signal

import pytest

from repro.core import GageConfig, Subscriber
from repro.harness.loadgen import ProxyRig, closed_loop
from repro.proxy.backend import BackendServer
from repro.proxy.workers import (
    WorkerSpec,
    WorkerSupervisor,
    _vec_from_list,
    _vec_map_from_wire,
    _vec_map_to_wire,
)
from repro.resources import ResourceVector


class TestWireHelpers:
    def test_vector_map_roundtrip(self):
        vectors = {
            "gold": ResourceVector(0.25, 0.5, 4096.0),
            "bronze": ResourceVector(0.0, 0.0, 1.0),
        }
        assert _vec_map_from_wire(_vec_map_to_wire(vectors)) == vectors

    def test_malformed_vector_rejected(self):
        with pytest.raises(ValueError):
            _vec_from_list([1.0, 2.0])
        with pytest.raises(ValueError):
            _vec_from_list("nope")

    def test_non_dict_map_is_empty(self):
        assert _vec_map_from_wire(None) == {}
        assert _vec_map_from_wire([1, 2]) == {}


class TestWorkerSpec:
    def test_pickle_roundtrip(self):
        spec = WorkerSpec(
            worker_id=1,
            host="127.0.0.1",
            port=8080,
            control_path="/tmp/ctl.sock",
            subscribers=(Subscriber("a.com", 50.0),),
            backends=(("backend0", ("127.0.0.1", 9000)),),
            config=GageConfig(),
            backend_capacity=ResourceVector(1.0, 1.0, 1e6),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestSupervisorConstruction:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(
                [Subscriber("a.com", 100)],
                {"backend0": ("127.0.0.1", 9000)},
                workers=0,
            )

    def test_rejects_no_backends(self):
        with pytest.raises(ValueError):
            WorkerSupervisor([Subscriber("a.com", 100)], {})

    @pytest.mark.parametrize("workers", [1, 4])
    def test_partitions_reservations_and_capacity(self, workers):
        supervisor = WorkerSupervisor(
            [Subscriber("a.com", 100), Subscriber("b.com", 60)],
            {"backend0": ("127.0.0.1", 9000)},
            workers=workers,
            backend_capacity=ResourceVector(1.0, 1.0, 12_500_000.0),
        )
        per_worker = {
            sub.name: sub.reservation_grps
            for sub in supervisor._worker_subscribers
        }
        # One worker passes reservations and capacity through unscaled.
        assert per_worker == {"a.com": 100.0 / workers, "b.com": 60.0 / workers}
        assert supervisor._worker_capacity == ResourceVector(
            1.0 / workers, 1.0 / workers, 12_500_000.0 / workers
        )
        # The allocator keeps the *global* reservations for spare shares.
        assert supervisor.allocator.reservations == {"a.com": 100, "b.com": 60}


async def _wait_until(predicate, timeout_s, interval_s=0.1):
    """Poll ``predicate`` until truthy or ``timeout_s`` elapses."""
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout_s
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval_s)
    return predicate()


def test_two_workers_share_port_and_rebalance():
    """Both workers serve traffic, report credit, and the supervisor's
    allocator runs rebalance rounds with a coherent merged metric view."""

    async def main():
        rig = ProxyRig(workers=2, num_backends=2, time_scale=0.0)
        port = await rig.start()
        supervisor = rig.supervisor
        try:
            ok = await _wait_until(
                lambda: sum(s.reports for s in supervisor._states.values()) >= 2,
                timeout_s=15.0,
            )
            assert ok, "workers never reported on the control channel"
            result = await closed_loop(
                "127.0.0.1",
                port,
                site=rig.site,
                concurrency=8,
                total_requests=200,
                keep_alive=False,
            )
            await _wait_until(
                lambda: supervisor.allocator.rebalances > 0, timeout_s=5.0
            )
            snapshot = supervisor.metrics_snapshot()
            return result, supervisor.alive_workers(), supervisor.restarts, (
                supervisor.allocator.rebalances,
                snapshot,
            )
        finally:
            await rig.stop()

    result, alive, restarts, (rebalances, snapshot) = asyncio.run(main())
    assert result.completed == 200
    assert result.errors == 0
    assert alive == 2
    assert restarts == 0
    assert rebalances > 0
    proxy_metrics = [
        name for name in snapshot["metrics"] if name.startswith("repro.proxy")
    ]
    assert proxy_metrics, "worker metrics missing from the aggregated view"


def test_worker_crash_restart_reclaims_and_regrants_credit():
    """SIGKILL one worker: the supervisor restarts it, reclaims its
    last-reported balances into the carry pool, and re-grants them to
    backlogged shards once load arrives."""

    async def main():
        rig = ProxyRig(
            workers=2, num_backends=2, time_scale=0.0, reservation_grps=400.0
        )
        port = await rig.start()
        supervisor = rig.supervisor
        try:
            ok = await _wait_until(
                lambda: all(
                    s.reports > 0 for s in supervisor._states.values()
                ),
                timeout_s=15.0,
            )
            assert ok, "workers never reported on the control channel"

            victim_pid = supervisor.worker_pid(0)
            assert victim_pid is not None
            os.kill(victim_pid, signal.SIGKILL)

            restarted = await _wait_until(
                lambda: supervisor.restarts >= 1, timeout_s=10.0
            )
            assert restarted, "supervisor never detected the dead worker"
            carry_after_reclaim = supervisor.allocator.carry_total()

            recovered = await _wait_until(
                lambda: supervisor.alive_workers() == 2
                and supervisor.worker_pid(0) not in (None, victim_pid),
                timeout_s=15.0,
            )
            assert recovered, "killed worker was not replaced"

            # Sustained overload creates backlog; the carried credit must
            # ride a rebalance back out to the shards.
            load = asyncio.ensure_future(
                closed_loop(
                    "127.0.0.1",
                    port,
                    site=rig.site,
                    concurrency=8,
                    duration_s=4.0,
                    keep_alive=False,
                )
            )
            regranted = await _wait_until(
                lambda: supervisor.allocator.carry_total().net_bytes
                < carry_after_reclaim.net_bytes,
                timeout_s=6.0,
                interval_s=0.2,
            )
            result = await load
            return carry_after_reclaim, regranted, result, supervisor.restarts
        finally:
            await rig.stop()

    carry, regranted, result, restarts = asyncio.run(main())
    assert restarts >= 1
    # The dead worker's idle balance was positive, so reclaim banked it.
    assert carry.net_bytes > 0
    assert regranted, "carried credit was never re-granted under backlog"
    assert result.completed > 0


def test_four_workers_hold_global_grps_isolation_under_overload():
    """Overload two subscribers across 4 workers: completed throughput
    must split in reservation proportion (the *global* guarantee), even
    though each connection lands on an arbitrary worker."""

    async def main():
        config = GageConfig(
            scheduling_cycle_s=0.002,
            accounting_cycle_s=0.05,
            dispatch_window_s=60.0,
            spare_policy="none",  # throughput == reservation, exactly
        )
        gold = Subscriber("gold.example", 160.0, queue_capacity=512)
        bronze = Subscriber("bronze.example", 80.0, queue_capacity=512)
        files = {"/index.html": 2048}
        sites = {"gold.example": files, "bronze.example": files}
        backends = []
        addrs = {}
        for index in range(2):
            backend = BackendServer(sites, time_scale=0.0)
            backend_port = await backend.start()
            backends.append(backend)
            addrs["backend{}".format(index)] = ("127.0.0.1", backend_port)
        supervisor = WorkerSupervisor(
            [gold, bronze], addrs, config=config, workers=4
        )
        port = await supervisor.start()
        try:
            ok = await _wait_until(
                lambda: all(
                    s.reports > 0 for s in supervisor._states.values()
                ),
                timeout_s=20.0,
            )
            assert ok, "workers never reported on the control channel"
            results = await asyncio.gather(
                closed_loop(
                    "127.0.0.1",
                    port,
                    site="gold.example",
                    concurrency=16,
                    duration_s=3.0,
                    keep_alive=False,
                ),
                closed_loop(
                    "127.0.0.1",
                    port,
                    site="bronze.example",
                    concurrency=16,
                    duration_s=3.0,
                    keep_alive=False,
                ),
            )
            return results, supervisor.alive_workers(), supervisor.restarts
        finally:
            await supervisor.stop()
            for backend in backends:
                await backend.stop()

    (gold_result, bronze_result), alive, restarts = asyncio.run(main())
    assert alive == 4
    assert restarts == 0
    # Overload actually happened: the backends answer instantly
    # (time_scale=0), so median latency far above service time means the
    # credit gate — not the data plane — paced every request.
    assert gold_result.latency_s(0.5) > 0.02
    assert bronze_result.latency_s(0.5) > 0.02
    assert bronze_result.completed > 0
    ratio = gold_result.completed / bronze_result.completed
    # Reservations are 160:80 GRPS == 2.0; the global guarantee must
    # hold within 10% despite connection-level skew across workers.
    assert ratio == pytest.approx(2.0, rel=0.10)
