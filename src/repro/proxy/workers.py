"""The multi-worker front end: N proxy processes under one supervisor.

One :class:`GageProxy` is bounded by a single event loop on a single
core.  :class:`WorkerSupervisor` forks ``N`` worker processes that all
listen on the *same* TCP port via ``SO_REUSEPORT`` — the kernel spreads
incoming connections across the workers, so the data plane scales with
cores while the paper's control plane stays correct through hierarchical
credit scheduling:

- each worker runs a full shard-local control plane — every subscriber
  registered at ``reservation / N`` with backend capacity scaled
  ``1 / N``, so the workers' combined view equals the whole cluster and
  per-worker WRR (level 1) enforces ``1/N`` of every guarantee;
- each accounting cycle a worker sends a compact JSON-lines **report**
  over a Unix-socket control channel (unused credit, backlog depths,
  balances, a metric snapshot); the supervisor runs the
  :class:`~repro.core.shard.GlobalAllocator` across the reports
  (level 2) and answers with **grants**, so credit a subscriber is not
  using on one worker chases its backlog on another and the *global*
  per-subscriber GRPS guarantee holds under connection-level skew;
- a worker that misses ``WORKER_MISS_LIMIT`` consecutive
  accounting cycles (crashed, wedged, or killed) is restarted; its
  last-reported credit balances are reclaimed into the allocator's carry
  pool and re-granted to the surviving shards, so the guarantee is
  violated for at most the detection window;
- per-worker metric registries are merged by the supervisor
  (:func:`~repro.telemetry.aggregate.merge_snapshots`) so
  ``repro.proxy.*`` and scheduler metrics remain one coherent view.

``workers=1`` keeps the supervisor out of the credit path entirely (no
rebalancing — the lone worker's in-shard spare pass is already the
paper's single-RDN spare pool), matching the single-process proxy's
scheduling decisions exactly.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import socket
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.config import GageConfig, ProxyConfig
from repro.core.shard import GlobalAllocator, ShardCreditReport
from repro.core.subscriber import Subscriber
from repro.proxy.frontend import DEFAULT_BACKEND_CAPACITY, GageProxy
from repro.resources import ResourceVector
from repro.telemetry.aggregate import merge_snapshots
from repro.telemetry.registry import get_registry

#: How long a freshly spawned worker may take to send its first report
#: before the supervisor declares the spawn failed (interpreter start +
#: module import dominate; generous so slow CI boxes don't flap).
SPAWN_GRACE_S = 15.0

#: Consecutive accounting cycles a worker may miss reporting on the
#: control channel before the supervisor declares it dead, reclaims its
#: credit and restarts it.
WORKER_MISS_LIMIT = 3


def _vec_to_list(vec: ResourceVector) -> List[float]:
    return [vec.cpu_s, vec.disk_s, vec.net_bytes]


def _vec_from_list(raw: object) -> ResourceVector:
    if not isinstance(raw, list) or len(raw) != 3:
        raise ValueError("malformed resource vector: {!r}".format(raw))
    return ResourceVector(float(raw[0]), float(raw[1]), float(raw[2]))


def _vec_map_to_wire(vectors: Mapping[str, ResourceVector]) -> Dict[str, List[float]]:
    return {name: _vec_to_list(vec) for name, vec in vectors.items()}


def _vec_map_from_wire(raw: object) -> Dict[str, ResourceVector]:
    if not isinstance(raw, dict):
        return {}
    return {str(name): _vec_from_list(value) for name, value in raw.items()}


def _encode(message: Dict[str, object]) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def _child_env() -> Dict[str, str]:
    """A worker subprocess's environment: ``repro`` must be importable.

    The parent may have put the package root on ``sys.path``
    programmatically (the ``scripts/`` entry points do) — the child
    inherits only ``PYTHONPATH``, so the root is prepended explicitly.
    """
    import repro

    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    current = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        root + os.pathsep + current if current else root
    )
    return env


def _reuseport_socket(host: str, port: int, listen: bool) -> socket.socket:
    """A TCP socket bound to (host, port) with ``SO_REUSEPORT`` set.

    The supervisor binds one *non-listening* socket at port 0 to reserve
    a concrete port; each worker then binds a *listening* socket to that
    same port.  The kernel balances incoming connections only among
    listening sockets, so the reservation never steals a connection.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(1024)
            sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs, picklable for spawn."""

    worker_id: int
    host: str
    port: int
    control_path: str
    #: Already scaled to ``reservation / N`` by the supervisor.
    subscribers: Tuple[Subscriber, ...]
    backends: Tuple[Tuple[str, Tuple[str, int]], ...]
    config: GageConfig
    #: Already scaled to ``capacity / N`` by the supervisor.
    backend_capacity: ResourceVector
    proxy_config: ProxyConfig = ProxyConfig()


# -- the worker process ------------------------------------------------------


async def _report_loop(
    spec: WorkerSpec, proxy: GageProxy, writer: asyncio.StreamWriter
) -> None:
    """Send one credit/metrics report per accounting cycle, forever."""
    seq = 0
    while True:
        await asyncio.sleep(spec.config.accounting_cycle_s)
        unused, backlog = proxy.scheduler.credit_report()
        seq += 1
        message: Dict[str, object] = {
            "type": "report",
            "worker": spec.worker_id,
            "seq": seq,
            "unused": _vec_map_to_wire(unused),
            "backlog": dict(backlog),
            "balances": _vec_map_to_wire(proxy.balances()),
            "metrics": get_registry().snapshot(),
        }
        writer.write(_encode(message))
        try:
            await writer.drain()
        except ConnectionError:
            return


async def _worker_async(spec: WorkerSpec) -> None:
    proxy = GageProxy(
        list(spec.subscribers),
        dict(spec.backends),
        config=spec.config,
        host=spec.host,
        backend_capacity=spec.backend_capacity,
        worker_id=spec.worker_id,
        proxy_config=spec.proxy_config,
    )
    sock = _reuseport_socket(spec.host, spec.port, listen=True)
    await proxy.start(sock=sock)
    reader, writer = await asyncio.open_unix_connection(spec.control_path)
    writer.write(
        _encode({"type": "hello", "worker": spec.worker_id, "pid": os.getpid()})
    )
    await writer.drain()
    reporter = asyncio.ensure_future(_report_loop(spec, proxy, writer))
    try:
        while True:
            line = await reader.readline()
            if not line:
                return  # supervisor went away: shut down with it
            try:
                message = json.loads(line)
            except ValueError:
                continue
            mtype = message.get("type")
            if mtype == "grant":
                proxy.scheduler.apply_credit_grant(_vec_map_from_wire(message.get("net")))
            elif mtype == "stop":
                return
    finally:
        reporter.cancel()
        writer.close()
        await proxy.stop()


def _worker_main(spec: WorkerSpec) -> None:
    """Entry point of one worker process."""
    try:
        asyncio.run(_worker_async(spec))
    except KeyboardInterrupt:
        pass


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.proxy.worker_main <spec-file>`` — run one worker.

    The supervisor pickles a :class:`WorkerSpec` to a private file and
    execs that module, so no re-import of the parent's ``__main__``
    happens (the classic multiprocessing-spawn hazard) and the worker
    is a plain OS process the supervisor can watch and kill.
    """
    args = list(sys.argv[1:]) if argv is None else list(argv)
    if len(args) != 1:
        raise SystemExit("usage: python -m repro.proxy.worker_main <spec-file>")
    with open(args[0], "rb") as handle:
        spec = pickle.load(handle)
    if not isinstance(spec, WorkerSpec):
        raise SystemExit("spec file does not contain a WorkerSpec")
    _worker_main(spec)
    return 0


# -- the supervisor ----------------------------------------------------------


@dataclass
class _WorkerState:
    """Supervisor-side bookkeeping for one worker slot."""

    worker_id: int
    process: Optional["subprocess.Popen[bytes]"] = None
    writer: Optional[asyncio.StreamWriter] = None
    spawned_at: float = 0.0
    last_report_at: Optional[float] = None
    #: The newest unconsumed report (consumed by one rebalance round).
    pending_report: Optional[Dict[str, object]] = None
    #: Last-known per-subscriber balances, for reclaim at death.
    last_balances: Dict[str, ResourceVector] = field(default_factory=dict)
    #: Last metric snapshot, for the aggregated telemetry view.
    last_metrics: Optional[Dict[str, object]] = None
    reports: int = 0


class WorkerSupervisor:
    """N ``SO_REUSEPORT`` proxy workers plus the credit control channel.

    Drop-in for :class:`~repro.proxy.frontend.GageProxy` at the
    start/stop/port level: ``await start()`` returns the shared port.
    """

    def __init__(
        self,
        subscribers: List[Subscriber],
        backends: Dict[str, Tuple[str, int]],
        config: Optional[GageConfig] = None,
        host: str = "127.0.0.1",
        workers: int = 2,
        backend_capacity: ResourceVector = DEFAULT_BACKEND_CAPACITY,
        proxy_config: Optional[ProxyConfig] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if not backends:
            raise ValueError("need at least one backend")
        self.config = config if config is not None else GageConfig()
        self.proxy_config = proxy_config or ProxyConfig()
        self.host = host
        self.workers = workers
        self.port: Optional[int] = None
        self.subscribers = list(subscribers)
        self.backends = dict(backends)
        self.allocator = GlobalAllocator(
            {sub.name: sub.reservation_grps for sub in subscribers}
        )
        #: Each worker guards 1/N of every guarantee and sees 1/N of
        #: every backend — the N shard-local control planes sum to
        #: exactly the single-process proxy's view of the cluster.
        fraction = 1.0 / workers
        self._worker_subscribers = tuple(
            Subscriber(
                sub.name,
                sub.reservation_grps * fraction,
                queue_capacity=sub.queue_capacity,
                delay_target_s=sub.delay_target_s,
            )
            for sub in subscribers
        )
        self._worker_capacity = backend_capacity.scaled(fraction)
        self.restarts = 0
        self._states: Dict[int, _WorkerState] = {
            worker_id: _WorkerState(worker_id) for worker_id in range(workers)
        }
        self._port_sock: Optional[socket.socket] = None
        self._control_dir: Optional[str] = None
        self._control_path: Optional[str] = None
        self._control_server: Optional[asyncio.AbstractServer] = None
        self._tasks: List["asyncio.Task[None]"] = []
        self._stopping = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self, port: int = 0) -> int:
        """Reserve the port, open the control channel, spawn the workers."""
        self._port_sock = _reuseport_socket(self.host, port, listen=False)
        self.port = self._port_sock.getsockname()[1]
        self._control_dir = tempfile.mkdtemp(prefix="gage-ctl-")
        self._control_path = os.path.join(self._control_dir, "control.sock")
        self._control_server = await asyncio.start_unix_server(
            self._on_control_connection, path=self._control_path
        )
        loop = asyncio.get_running_loop()
        now = loop.time()
        for state in self._states.values():
            self._spawn(state, now)
        # Readiness barrier: a worker says hello only after its listener
        # is up, so waiting here gives start() the same contract as
        # GageProxy.start() — the returned port accepts connections.
        deadline = loop.time() + SPAWN_GRACE_S
        while (
            any(state.writer is None for state in self._states.values())
            and loop.time() < deadline
        ):
            await asyncio.sleep(0.02)
        missing = [
            state.worker_id
            for state in self._states.values()
            if state.writer is None
        ]
        if missing:
            await self.stop()
            raise RuntimeError(
                "worker(s) {} failed to start within {}s".format(
                    missing, SPAWN_GRACE_S
                )
            )
        self._tasks.append(asyncio.ensure_future(self._control_loop()))
        return self.port

    async def stop(self) -> None:
        """Stop workers (politely, then firmly) and tear the channel down."""
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        for state in self._states.values():
            if state.writer is not None:
                try:
                    state.writer.write(_encode({"type": "stop"}))
                    await state.writer.drain()
                except ConnectionError:
                    pass
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 2.0
        for state in self._states.values():
            process = state.process
            if process is None:
                continue
            while process.poll() is None and loop.time() < deadline:
                await asyncio.sleep(0.05)
            if process.poll() is None:
                process.terminate()
                await asyncio.sleep(0.1)
            if process.poll() is None:
                process.kill()
            try:
                process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                pass
            state.process = None
        for state in self._states.values():
            if state.writer is not None:
                state.writer.close()
                state.writer = None
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
            self._control_server = None
        if self._port_sock is not None:
            self._port_sock.close()
            self._port_sock = None
        if self._control_dir is not None and os.path.isdir(self._control_dir):
            for name in os.listdir(self._control_dir):
                try:
                    os.unlink(os.path.join(self._control_dir, name))
                except OSError:
                    pass
            os.rmdir(self._control_dir)

    def alive_workers(self) -> int:
        """Worker processes currently running."""
        return sum(
            1
            for state in self._states.values()
            if state.process is not None and state.process.poll() is None
        )

    def worker_pid(self, worker_id: int) -> Optional[int]:
        """The OS pid of one worker process (None if not running)."""
        state = self._states[worker_id]
        if state.process is None or state.process.poll() is not None:
            return None
        return state.process.pid

    # -- spawning and the control channel -----------------------------------

    def _spawn(self, state: _WorkerState, now: float) -> None:
        assert self._control_dir is not None
        assert self.port is not None and self._control_path is not None
        spec = WorkerSpec(
            worker_id=state.worker_id,
            host=self.host,
            port=self.port,
            control_path=self._control_path,
            subscribers=self._worker_subscribers,
            backends=tuple(sorted(self.backends.items())),
            config=self.config,
            proxy_config=self.proxy_config,
            backend_capacity=self._worker_capacity,
        )
        spec_path = os.path.join(
            self._control_dir, "worker{}.spec".format(state.worker_id)
        )
        with open(spec_path, "wb") as handle:
            pickle.dump(spec, handle)
        state.process = subprocess.Popen(
            [sys.executable, "-m", "repro.proxy.worker_main", spec_path],
            env=_child_env(),
        )
        state.spawned_at = now
        state.last_report_at = None
        state.pending_report = None

    async def _on_control_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One worker's control-channel session (hello, then reports)."""
        state: Optional[_WorkerState] = None
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                try:
                    message = json.loads(line)
                except ValueError:
                    continue
                mtype = message.get("type")
                worker_raw = message.get("worker")
                if not isinstance(worker_raw, int):
                    continue
                current = self._states.get(worker_raw)
                if current is None:
                    continue
                if mtype == "hello":
                    state = current
                    state.writer = writer
                elif mtype == "report" and state is current:
                    now = asyncio.get_running_loop().time()
                    state.last_report_at = now
                    state.pending_report = message
                    state.reports += 1
                    state.last_balances = _vec_map_from_wire(
                        message.get("balances")
                    )
                    metrics = message.get("metrics")
                    if isinstance(metrics, dict):
                        state.last_metrics = metrics
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        finally:
            if state is not None and state.writer is writer:
                state.writer = None
            writer.close()

    # -- the supervision / rebalance loop -----------------------------------

    async def _control_loop(self) -> None:
        loop = asyncio.get_running_loop()
        cycle = self.config.accounting_cycle_s
        while not self._stopping:
            await asyncio.sleep(cycle)
            now = loop.time()
            self._reap_dead(now)
            if self.workers > 1:
                self._rebalance()

    def _is_dead(self, state: _WorkerState, now: float) -> bool:
        if state.process is None or state.process.poll() is not None:
            return True
        limit = WORKER_MISS_LIMIT * self.config.accounting_cycle_s
        if state.last_report_at is not None:
            return now - state.last_report_at > limit
        # Never reported: allow interpreter start-up before flagging.
        return now - state.spawned_at > max(limit, SPAWN_GRACE_S)

    def _reap_dead(self, now: float) -> None:
        """Restart dead workers, reclaiming their outstanding credit.

        The reclaimed balances enter the allocator's carry pool and ride
        the next rebalance to the surviving shards — a crashed worker's
        credit is redistributed, not destroyed, so the global guarantee
        recovers within the detection window.
        """
        for state in self._states.values():
            if not self._is_dead(state, now):
                continue
            self.allocator.reclaim(state.last_balances)
            state.last_balances = {}
            process = state.process
            if process is not None and process.poll() is None:
                process.kill()
                try:
                    process.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    pass
            if state.writer is not None:
                state.writer.close()
                state.writer = None
            self._spawn(state, now)
            self.restarts += 1

    def _rebalance(self) -> None:
        """One allocator round over the workers' unconsumed reports."""
        reports: List[ShardCreditReport] = []
        for state in self._states.values():
            message = state.pending_report
            if message is None:
                continue
            state.pending_report = None
            backlog_raw = message.get("backlog")
            backlog: Dict[str, int] = {}
            if isinstance(backlog_raw, dict):
                backlog = {
                    str(name): int(depth) for name, depth in backlog_raw.items()
                }
            reports.append(
                ShardCreditReport(
                    state.worker_id,
                    unused=_vec_map_from_wire(message.get("unused")),
                    backlog=backlog,
                )
            )
        if not reports:
            return
        answers = self.allocator.rebalance(reports)
        for state in self._states.values():
            answer = answers.get(state.worker_id)
            if answer is None or state.writer is None:
                continue
            net = answer.net()
            if not net:
                continue
            state.writer.write(
                _encode({"type": "grant", "net": _vec_map_to_wire(net)})
            )

    # -- telemetry ----------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """One coherent metric view: supervisor plus every worker."""
        snapshots: List[Dict[str, object]] = [get_registry().snapshot()]
        for state in self._states.values():
            if state.last_metrics is not None:
                snapshots.append(state.last_metrics)
        return merge_snapshots(snapshots, name="proxy-workers")

    def accept_counts(self) -> Dict[int, int]:
        """Connections accepted per worker, from each last report.

        The ``repro.proxy.worker.accepts`` counter each worker labels
        with its id — the measurement behind the ``SO_REUSEPORT``
        accept-balance figure: the kernel's listener choice is only
        balanced in aggregate, and a starved worker shows up here as a
        near-zero count.
        """
        prefix = "repro.proxy.worker.accepts{"
        counts: Dict[int, int] = {}
        for state in self._states.values():
            total = 0
            snapshot = state.last_metrics
            metrics = snapshot.get("metrics") if isinstance(snapshot, dict) else None
            if isinstance(metrics, dict):
                for full_name, entry in metrics.items():
                    if full_name.startswith(prefix) and isinstance(entry, dict):
                        value = entry.get("value", 0)
                        total += int(value if isinstance(value, (int, float)) else 0)
            counts[state.worker_id] = total
        return counts
