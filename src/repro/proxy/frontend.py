"""The Gage front end on real sockets.

Runs the *identical* scheduling/accounting code as the simulator —
:class:`~repro.core.queues.SubscriberQueues`,
:class:`~repro.core.scheduler.RequestScheduler`,
:class:`~repro.core.node_scheduler.NodeScheduler`,
:class:`~repro.core.accounting.RDNAccounting`, queues and accounting on
one subscriber table as in the simulated RDN — driven by asyncio tasks
instead of simulated processes:

- the **scheduler task** runs one WRR credit cycle every scheduling
  cycle (10 ms), sleeping to fixed due times so the tick keeps its rate;
  a dispatch resolves the queued request's future, and the connection's
  own task connects to the chosen back end and splices the two sockets;
- the **accounting task** wakes every accounting cycle, turns the usage
  collected from ``X-Gage-Usage`` response headers into
  :class:`~repro.core.feedback.AccountingMessage` objects (one per back
  end), and applies them exactly as the simulated RDN would.

The data plane is built for throughput: client connections are HTTP/1.1
keep-alive (one connection carries many requests through classification
and the WRR gate), back-end sockets are pooled and reused
(:class:`~repro.proxy.backend_pool.BackendPool`), message heads and
bodies go out in one vectored write, and bulk bodies are relayed
transport-to-transport under flow control
(:func:`~repro.proxy.splice.splice_exactly`).

Every dispatched request is served by one path, :meth:`GageProxy._serve`,
awaited by the connection's task.  Hedging (off by default) is decided
by the simulator's own :class:`~repro.core.hedge.HedgeManager`, run on
the loop's clock: it tracks bodyless requests, fires clones (each copy
a task), charges and refunds them; the proxy only lends it the
transport verbs (dial a clone, drain a loser).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.accounting import RDNAccounting
from repro.core.classifier import RequestClassifier
from repro.core.config import HEDGE_OFF, GageConfig, ProxyConfig
from repro.core.feedback import AccountingMessage, RPNUsageReport
from repro.core.hedge import HedgeHooks, HedgeManager
from repro.core.metrics import (
    BACKEND_EJECTED,
    BACKEND_READMITTED,
    REQUEST_SHED,
    FailureLog,
)
from repro.core.node_scheduler import NodeScheduler
from repro.core.queues import SubscriberQueues
from repro.core.scheduler import RequestScheduler
from repro.core.subscriber import Subscriber
from repro.proxy.backend_pool import BackendPool
from repro.proxy.client_session import ClientSessionMixin, _PendingConnection
from repro.proxy.http import (
    HTTPError,
    HTTPResponseHead,
    read_response_head,
    render_request_head,
    render_response_head,
    wants_keep_alive,
)
from repro.proxy.splice import splice_exactly, timeout, tune_transport
from repro.resources import ResourceVector
from repro.telemetry.registry import get_registry


@dataclass
class ProxyStats:
    """Counters across the proxy's lifetime."""

    accepted: int = 0
    rejected_unknown_host: int = 0
    dropped_queue_full: int = 0
    dispatched: int = 0
    completed: int = 0
    failed: int = 0
    bytes_relayed: int = 0
    #: Backend reads that exceeded the response timeout (504s sent).
    timed_out: int = 0
    #: Dispatches re-attempted on an alternate backend after a failure.
    retried: int = 0
    #: Requests refused with 503 because no healthy backend existed.
    shed_no_backend: int = 0
    #: Requests that arrived on an already-open client connection.
    keepalive_requests: int = 0
    #: Hedge clones fired after the hedge delay expired unanswered.
    hedges_fired: int = 0
    #: Hedged requests where a clone's response head arrived first.
    hedges_won: int = 0
    #: Hedge losers cancelled (drained/closed) after resolution.
    hedges_cancelled: int = 0
    #: Retries skipped because the retry-budget token bucket was empty.
    retry_budget_exhausted: int = 0
    #: Requests 504ed because their deadline passed before service began.
    deadline_expired: int = 0


#: A backend's answer: its socket, and the response head read from it.
_Answer = Tuple[asyncio.StreamReader, asyncio.StreamWriter, HTTPResponseHead]


class _DialError(OSError):
    """No connection to the backend could be opened."""


#: How one copy of a request can fail.
_ATTEMPT_FAILURES = (OSError, HTTPError, asyncio.TimeoutError, asyncio.IncompleteReadError)


class _Race:
    """The copies of one hedged request: what the hedge manager tracks.

    ``attempts`` maps each backend holding a copy to its task;
    ``finished`` yields those backends in the order their tasks finish.
    """

    __slots__ = ("exchange", "attempts", "finished")

    def __init__(self, exchange: Tuple[object, ...]) -> None:
        #: The :meth:`GageProxy._attempt` arguments after the backend.
        self.exchange = exchange
        self.attempts: Dict[str, "asyncio.Future[_Answer]"] = {}
        self.finished: "asyncio.Queue[str]" = asyncio.Queue()


#: Default per-backend capacity: one CPU-second and disk-second per
#: second, 12.5 MB/s of link — mirrors the simulator's node capacity.
DEFAULT_BACKEND_CAPACITY = ResourceVector(1.0, 1.0, 12_500_000.0)


class GageProxy(ClientSessionMixin):
    """The front-end request distribution proxy.

    Client admission, keep-alive, and shedding live in
    :class:`~repro.proxy.client_session.ClientSessionMixin`; this class
    owns the control plane (scheduler/accounting loops), the dispatch
    data plane, and backend health.
    """

    _loop: asyncio.AbstractEventLoop  #: set by :meth:`start`; its clock is the proxy's

    def __init__(
        self,
        subscribers: List[Subscriber],
        backends: Dict[str, Tuple[str, int]],
        config: Optional[GageConfig] = None,
        host: str = "127.0.0.1",
        backend_capacity: ResourceVector = DEFAULT_BACKEND_CAPACITY,
        worker_id: int = 0,
        proxy_config: Optional[ProxyConfig] = None,
    ) -> None:
        if not backends:
            raise ValueError("need at least one backend")
        self.config = config or GageConfig()
        #: Backend failure handling: timeouts, ejection, retries, deadlines.
        self.proxy_config = proxy_config or ProxyConfig()
        self.host = host
        #: Which SO_REUSEPORT worker this proxy instance is (0 for a
        #: standalone single-process proxy); labels the accept counter
        #: so the supervisor can measure kernel accept balance.
        self.worker_id = worker_id
        self.port: Optional[int] = None
        self.backends = dict(backends)
        self.stats = ProxyStats()
        self.classifier = RequestClassifier(host_extractor=lambda head: head.host)
        self.queues = SubscriberQueues()
        self.accounting = RDNAccounting(table=self.queues.table)
        self.accounting.keep_usage_log = False
        self.node_scheduler = NodeScheduler(
            policy=self.config.node_policy, window_s=self.config.dispatch_window_s
        )
        self.scheduler = RequestScheduler(
            self.config,
            self.queues,
            self.accounting,
            self.node_scheduler,
            dispatch_fn=self._dispatch,
        )
        for subscriber in subscribers:
            self.queues.register(subscriber)
            self.accounting.register(subscriber)
            self.classifier.register_host(subscriber.name, subscriber.name)
        for backend_id in backends:
            self.node_scheduler.add_node(backend_id, backend_capacity)
        #: backend -> subscriber -> [usage, completed] since last flush.
        self._buckets: Dict[str, Dict[str, List[object]]] = {
            backend_id: {} for backend_id in backends
        }
        #: Idle keep-alive sockets to each backend, reused across requests.
        self.pool = BackendPool()
        #: Ejection/re-admission/shedding ledger (loop-clock timestamps).
        self.failures = FailureLog()
        #: Consecutive failures per backend; any success resets to zero,
        #: ``failure_threshold`` in a row ejects the backend.
        self._consecutive_failures: Dict[str, int] = {
            backend_id: 0 for backend_id in backends
        }
        #: Backends with a probe task in flight (no duplicate probes).
        self._probing: Set[str] = set()
        #: Tracks bodyless requests when hedging is on; built by
        #: :meth:`start`, which has the loop whose clock it runs on.
        self.hedges: Optional[HedgeManager] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: Background and connection tasks; each leaves when it is done.
        self._tasks: Set["asyncio.Task[None]"] = set()
        self._stopping = False
        #: Retry-budget token bucket (None = unlimited, the default).
        #: Refilled by the scheduler loop at the configured rate; a
        #: retry that finds the bucket empty is skipped, so retries plus
        #: hedges cannot storm a degraded backend.
        budget = self.proxy_config.retry_budget
        self._retry_tokens: Optional[float] = None if budget is None else float(budget)
        #: Seeded source of backoff jitter — deterministic under test.
        self._retry_rng = random.Random(0x9A9E)
        registry = get_registry()
        self._tm_connect_latency = registry.histogram("repro.proxy.connect_latency_s")
        self._tm_response_latency = registry.histogram("repro.proxy.response_latency_s")
        self._tm_retries = registry.counter("repro.proxy.retries")
        self._tm_shed = registry.counter("repro.proxy.shed_requests")
        self._tm_timeouts = registry.counter("repro.proxy.timeouts")
        self._tm_ejections = registry.counter("repro.proxy.ejections")
        self._tm_readmissions = registry.counter("repro.proxy.readmissions")
        self._tm_retry_budget_exhausted = registry.counter(
            "repro.proxy.retry_budget_exhausted"
        )
        self._tm_deadline_expired = registry.counter("repro.proxy.deadline_expired")
        #: Connections this worker's listener accepted — the per-worker
        #: series behind the SO_REUSEPORT accept-balance measurement.
        self._tm_accepts = registry.counter(
            "repro.proxy.worker.accepts", worker=str(worker_id)
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self, port: int = 0, sock: Optional[object] = None) -> int:
        """Bind, start serving, and start the scheduler/accounting tasks.

        ``sock`` lets a caller hand in an already-bound listening socket
        — the multi-worker supervisor passes each worker an
        ``SO_REUSEPORT`` socket on the shared port so the kernel spreads
        incoming connections across the worker processes.
        """
        if sock is not None:
            self._server = await asyncio.start_server(self._handle, sock=sock)
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.host, port=port
            )
        self.port = self._server.sockets[0].getsockname()[1]
        self._loop = loop = asyncio.get_running_loop()
        if self.config.hedge_policy != HEDGE_OFF:
            self.hedges = HedgeManager(
                loop.time,
                loop.call_later,
                self.config,
                HedgeHooks(
                    pick_clone=self._pick_clone,
                    dispatch_clone=self._dispatch_clone,
                    cancel=self._cancel_copy,
                ),
                self.accounting,
                self.node_scheduler,
            )
        self._track(loop.create_task(self._scheduler_loop()))
        self._track(loop.create_task(self._accounting_loop()))
        return self.port

    async def stop(self) -> None:
        """Stop serving and cancel the background tasks."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self.pool.close_all()

    def _track(self, task: "asyncio.Task[None]") -> None:
        """Keep ``task`` in :attr:`_tasks` until it is done (stop() cancels it)."""
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- background loops --------------------------------------------------

    async def _scheduler_loop(self) -> None:
        loop = self._loop
        cycle = self.config.scheduling_cycle_s
        due = loop.time()
        while not self._stopping:
            due += cycle
            await asyncio.sleep(max(0.0, due - loop.time()))
            if self._retry_tokens is not None:
                self._retry_tokens = min(
                    float(self.proxy_config.retry_budget or 0),
                    self._retry_tokens
                    + self.proxy_config.retry_budget_refill_per_s * cycle,
                )
            self.scheduler.run_cycle()
            self.pool.sweep()
            get_registry().tick()
            if not self.node_scheduler.up_nodes():
                self._shed_queued()

    async def _accounting_loop(self) -> None:
        loop = self._loop
        cycle = self.config.accounting_cycle_s
        last = due = loop.time()
        while not self._stopping:
            due += cycle
            await asyncio.sleep(max(0.0, due - loop.time()))
            now = loop.time()
            for backend_id in self.backends:
                message = self._flush_bucket(backend_id, last, now)
                if message.per_subscriber:
                    self.scheduler.apply_feedback(message)
            last = now

    def _flush_bucket(self, backend_id: str, start: float, end: float) -> AccountingMessage:
        bucket = self._buckets[backend_id]
        per_subscriber = {}
        total = ResourceVector.ZERO
        for name, (usage, completed) in bucket.items():
            per_subscriber[name] = RPNUsageReport(usage, completed)
            total = total + usage
        bucket.clear()
        return AccountingMessage(
            rpn_id=backend_id,
            cycle_start_s=start,
            cycle_end_s=end,
            total_usage=total,
            per_subscriber=per_subscriber,
        )

    def _now(self) -> float:
        return self._loop.time()

    # -- multi-worker front end ----------------------------------------------

    def balances(self) -> Dict[str, ResourceVector]:
        """Current per-subscriber credit balances (for restart reclaim).

        Read by dense id after a :meth:`RequestScheduler.sync`, so parked
        subscribers are up to date and none is woken.
        """
        self.scheduler.sync()
        out: Dict[str, ResourceVector] = {}
        for queue in self.queues:
            account = self.accounting.account_by_id(queue.sid)
            if account is not None:
                out[queue.subscriber.name] = account.balance
        return out

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(
        self, item: object, backend_id: str, subscriber: str,
        predicted: ResourceVector,
    ) -> None:
        """Wake the request's connection task; if it is gone (cancelled
        while queued), settle the charge as :meth:`_expire` does."""
        assert isinstance(item, _PendingConnection)
        self.stats.dispatched += 1
        if item.verdict.done():
            self.stats.failed += 1
            self._record(backend_id, subscriber, ResourceVector.ZERO, completed=1)
            return
        item.verdict.set_result((backend_id, subscriber, predicted))

    async def _acquire(
        self, backend_id: str, fresh: bool = False
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, bool]:
        """A connection to ``backend_id``: pooled if available, else dialed.

        Returns ``(reader, writer, reused)``; raises ``OSError`` or
        ``asyncio.TimeoutError`` when a fresh dial fails.
        """
        if not fresh:
            pooled = self.pool.get(backend_id)
            if pooled is not None:
                return pooled[0], pooled[1], True
        connect_started = self._now()
        with timeout(self.proxy_config.connect_timeout_s):
            reader, writer = await asyncio.open_connection(*self.backends[backend_id])
        self._tm_connect_latency.observe(self._now() - connect_started)
        tune_transport(writer.transport)
        return reader, writer, False

    async def _attempt(
        self,
        backend_id: str,
        request_head: bytes,
        body_len: int,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
        response_timeout: float,
    ) -> _Answer:
        """One copy of a request: connect, send it, read the response head.

        Raises :class:`_DialError` when no connection could be opened —
        the one failure a request is retried elsewhere for.  A pooled
        socket that went stale while parked (the backend closed its end)
        is redialed fresh once if no request body was consumed from the
        client: a dead parked socket is not a backend failure.  The
        socket is closed on any failure, cancellation included, so a
        lost attempt never leaks a connection.
        """
        try:
            reader, writer, reused = await self._acquire(backend_id)
        except (OSError, asyncio.TimeoutError) as exc:
            raise _DialError(str(exc)) from exc
        try:
            while True:
                try:
                    await splice_exactly(
                        client_reader, client_writer, writer, body_len,
                        prefix=request_head,
                    )
                    await writer.drain()
                    with timeout(response_timeout):
                        response = await read_response_head(reader)
                    return reader, writer, response
                except (ConnectionError, asyncio.IncompleteReadError) as exc:
                    if not reused or body_len:
                        raise
                    writer.close()
                    try:
                        reader, writer, reused = await self._acquire(
                            backend_id, fresh=True
                        )
                    except (OSError, asyncio.TimeoutError):
                        raise exc from None
        except BaseException:
            writer.close()
            raise

    async def _serve(
        self,
        pending: _PendingConnection,
        backend_id: str,
        subscriber: str,
        predicted: ResourceVector,
    ) -> bool:
        """Proxy one dispatched request, hedged or not, riding out failures.

        A request the hedge manager does not track — hedging off, or a
        request with a body, which can be read from the client only once
        — awaits its one attempt inline.  A tracked request runs each
        copy as a task: the manager clones it after the hedge delay, the
        first response head wins, and the losers are cancelled, refunded
        by the manager and drained in the background.

        When the last live copy cannot connect, the request takes one
        retry (with jittered exponential backoff) against the
        least-loaded healthy backend not yet tried; a backend that
        accepts but never answers is cut off by the response timeout and
        the client gets a 504.  Usage is billed under the backend charged
        for the answering copy — for a retry, the failed copy's — so the
        accounting's pending-prediction queues stay consistent.

        On success, the backend socket returns to the pool (if the
        backend kept it alive).  Returns whether the client connection
        stays open for its next request; otherwise it has been closed.
        """
        client_reader, client_writer = pending.reader, pending.writer
        remaining = self._deadline_remaining(pending)
        if remaining is not None and remaining <= 0:
            await self._expire(pending, backend_id, subscriber)
            return False
        response_timeout = self.proxy_config.response_timeout_s
        if remaining is not None:
            response_timeout = min(response_timeout, remaining)
        head = pending.head
        client_keep_alive = wants_keep_alive(head)
        body_len = head.content_length
        # The hop to the backend is always keep-alive; the client's own
        # connection preference is honored on the client side only.
        head.headers["connection"] = "keep-alive"
        exchange = (
            render_request_head(head), body_len, client_reader, client_writer,
            response_timeout,
        )
        race: Optional[_Race] = None
        if self.hedges is not None and body_len == 0:
            race = _Race(exchange)
            self.hedges.on_primary_dispatch(race, backend_id, subscriber, predicted)
            self._launch(race, backend_id)
        tried: Set[str] = {backend_id}
        current = billed = backend_id
        started = self._now()
        answer: Optional[_Answer] = None
        head_sent = released = client_ok = False
        try:
            for attempt in range(2):
                try:
                    if race is None:
                        answer = await self._attempt(current, *exchange)
                    else:
                        current = billed = await self._first_answer(race, subscriber)
                        answer = race.attempts[current].result()
                    break
                except _DialError:
                    self._note_backend_failure(current)
                    if race is not None:
                        tried.update(race.attempts)
                        race = None
                    alternate = self._pick_alternate(tried)
                    if not (
                        attempt == 0
                        and alternate is not None
                        and self._take_retry_token()
                    ):
                        raise
                    self.stats.retried += 1
                    self._tm_retries.inc()
                    # Full-jitter exponential backoff: a burst of failures
                    # spreads its retries over [0, base * 2^attempt)
                    # instead of hammering the alternate in lockstep.
                    await asyncio.sleep(
                        self._retry_rng.uniform(
                            0.0, self.proxy_config.retry_backoff_s * (2 ** attempt)
                        )
                    )
                    current = alternate
                    tried.add(current)
            assert answer is not None
            if current != backend_id and race is not None:
                self.stats.hedges_won += 1
            backend_reader, backend_writer, response = answer
            usage_triple = response.usage()
            backend_keep_alive = wants_keep_alive(response)
            response.headers["connection"] = (
                "keep-alive" if client_keep_alive else "close"
            )
            response_head = render_response_head(response, drop_usage=True)
            head_sent = True
            with timeout(response_timeout):
                relayed = await splice_exactly(
                    backend_reader,
                    backend_writer,
                    client_writer,
                    response.content_length,
                    prefix=response_head,
                )
            await client_writer.drain()
            self.stats.completed += 1
            self._tm_response_latency.observe(self._now() - started)
            self.stats.bytes_relayed += relayed
            usage = (
                ResourceVector(*usage_triple)
                if usage_triple is not None
                else ResourceVector(0.0, 0.0, float(relayed))
            )
            self._record(billed, subscriber, usage, completed=1)
            self._consecutive_failures[current] = 0
            if backend_keep_alive and not self._stopping:
                released = self.pool.put(current, backend_reader, backend_writer)
            client_ok = True
        except _DialError:
            self.stats.failed += 1
            self._record(billed, subscriber, ResourceVector.ZERO, completed=1)
            if self.node_scheduler.up_nodes():
                await self._refuse(client_writer, 502, "Bad Gateway")
            else:
                self.stats.shed_no_backend += 1
                self._tm_shed.inc()
                self.failures.record(self._now(), REQUEST_SHED, subscriber)
                await self._refuse(
                    client_writer,
                    503,
                    "Service Unavailable",
                    retry_after_s=self._retry_after_s(),
                )
        except asyncio.TimeoutError:
            self.stats.timed_out += 1
            self._tm_timeouts.inc()
            self.stats.failed += 1
            self._note_backend_failure(current)
            self._record(billed, subscriber, ResourceVector.ZERO, completed=1)
            if not head_sent:
                await self._refuse(client_writer, 504, "Gateway Timeout")
            # else: the head already reached the client, so no error
            # status can follow; just cut the stalled transfer.
        except (HTTPError, ConnectionError, asyncio.IncompleteReadError):
            self.stats.failed += 1
            self._note_backend_failure(current)
            self._record(billed, subscriber, ResourceVector.ZERO, completed=1)
            if not head_sent:
                await self._refuse(client_writer, 502, "Bad Gateway")
        finally:
            if answer is not None and not released:
                answer[1].close()
            if not (client_ok and client_keep_alive):
                client_writer.close()
        return client_ok and client_keep_alive

    # -- deadlines and retry budget ------------------------------------------

    def _deadline_remaining(self, pending: _PendingConnection) -> Optional[float]:
        """Seconds left before this request's deadline (None = no deadline)."""
        deadline = self.proxy_config.request_deadline_s
        if deadline is None:
            return None
        return deadline - (self._now() - pending.enqueued_at)

    async def _expire(
        self, pending: _PendingConnection, backend_id: str, subscriber: str
    ) -> None:
        """504 a request whose deadline passed while it sat queued.

        The scheduler already charged the dispatch, so a zero-usage
        completion is recorded to keep the prediction back-out aligned.
        """
        self.stats.deadline_expired += 1
        self._tm_deadline_expired.inc()
        self.stats.failed += 1
        self._record(backend_id, subscriber, ResourceVector.ZERO, completed=1)
        await self._refuse(pending.writer, 504, "Gateway Timeout")

    def _take_retry_token(self) -> bool:
        """Spend one retry-budget token; False (and counted) when empty."""
        if self._retry_tokens is None:
            return True
        if self._retry_tokens >= 1.0:
            self._retry_tokens -= 1.0
            return True
        self.stats.retry_budget_exhausted += 1
        self._tm_retry_budget_exhausted.inc()
        return False

    # -- hedging: the transport verbs lent to the hedge manager -------------

    def _launch(self, race: _Race, backend_id: str) -> None:
        """Start one copy of a tracked request as a task."""
        task = asyncio.ensure_future(self._attempt(backend_id, *race.exchange))
        task.add_done_callback(lambda _task: race.finished.put_nowait(backend_id))
        race.attempts[backend_id] = task

    async def _first_answer(self, race: _Race, subscriber: str) -> str:
        """The backend whose copy answered first, or whose copy failed last.

        A failed copy with a live sibling settles its own charge (zero
        usage, one completion) and the race goes on; the first response
        head resolves the request with the manager, which cancels and
        refunds the rest.
        """
        assert self.hedges is not None
        while True:
            backend_id = await race.finished.get()
            try:
                race.attempts[backend_id].result()
            except _ATTEMPT_FAILURES:
                if self.hedges.filter_requeue(backend_id, [race]):
                    return backend_id
                self._note_backend_failure(backend_id)
                self._record(backend_id, subscriber, ResourceVector.ZERO, completed=1)
                continue
            self.hedges.on_completion(race, backend_id)
            return backend_id

    def _pick_clone(
        self, race: object, predicted: ResourceVector, exclude: FrozenSet[str]
    ) -> Optional[str]:
        return None if self._stopping else self._pick_alternate(exclude)

    def _dispatch_clone(self, race: object, backend_id: str, subscriber: str) -> None:
        assert isinstance(race, _Race)
        self.stats.hedges_fired += 1
        self._launch(race, backend_id)

    def _cancel_copy(self, race: object, backend_id: str, subscriber: str) -> bool:
        """A loser is cancelled by draining whatever it answers, later."""
        assert isinstance(race, _Race)
        self.stats.hedges_cancelled += 1
        self._track(
            self._loop.create_task(
                self._drain_loser(race.attempts[backend_id], backend_id, subscriber)
            )
        )
        return True

    async def _drain_loser(
        self, attempt: "asyncio.Future[_Answer]", loser_id: str, subscriber: str
    ) -> None:
        """Wait out a cancelled copy, consume its body, pool its socket.

        The prediction was refunded at resolution; the *measured* usage
        is billed with ``completed=0`` so the subscriber still pays for
        the work the backend actually did, without disturbing the
        count-based prediction back-out.
        """
        try:
            reader, writer, response = await attempt
        except _ATTEMPT_FAILURES:
            # A loser that never answered is a real backend signal —
            # count it so a hung backend still gets ejected.
            self._note_backend_failure(loser_id)
            return  # _attempt already closed its socket
        try:
            with timeout(self.proxy_config.response_timeout_s):
                await self._discard_body(reader, response.content_length)
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            writer.close()
            return
        usage_triple = response.usage()
        if usage_triple is not None:
            self._record(
                loser_id, subscriber, ResourceVector(*usage_triple), completed=0
            )
        released = False
        if wants_keep_alive(response) and not self._stopping:
            released = self.pool.put(loser_id, reader, writer)
        if not released:
            writer.close()

    @staticmethod
    async def _discard_body(reader: asyncio.StreamReader, nbytes: int) -> None:
        """Read and drop exactly ``nbytes`` from a backend stream."""
        remaining = nbytes
        while remaining > 0:
            chunk = await reader.read(min(65536, remaining))
            if not chunk:
                raise asyncio.IncompleteReadError(partial=b"", expected=remaining)
            remaining -= len(chunk)

    # -- backend health ----------------------------------------------------------

    def _pick_alternate(self, tried: AbstractSet[str]) -> Optional[str]:
        """The least-loaded healthy backend outside ``tried``, if any."""
        candidates = [
            status
            for status in self.node_scheduler.up_nodes()
            if status.rpn_id not in tried
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: s.load_seconds()).rpn_id

    def _note_backend_failure(self, backend_id: str) -> None:
        """Count one failure; eject the backend at the threshold."""
        count = self._consecutive_failures.get(backend_id, 0) + 1
        self._consecutive_failures[backend_id] = count
        status = self.node_scheduler.get(backend_id)
        if (
            status is not None
            and status.up
            and count >= self.proxy_config.failure_threshold
        ):
            now = self._now()
            self.node_scheduler.mark_down(backend_id, at_s=now)
            # No socket to a dead node survives in the pool.
            self.pool.drop_backend(backend_id)
            self._tm_ejections.inc()
            self.failures.record(now, BACKEND_EJECTED, backend_id, detail=float(count))
            if backend_id not in self._probing:
                self._probing.add(backend_id)
                self._track(self._loop.create_task(self._probe_loop(backend_id)))

    async def _probe_loop(self, backend_id: str) -> None:
        """Re-admit an ejected backend once a probe connect succeeds."""
        host, port = self.backends[backend_id]
        try:
            while not self._stopping:
                await asyncio.sleep(self.proxy_config.probe_interval_s)
                try:
                    with timeout(self.proxy_config.connect_timeout_s):
                        reader, writer = await asyncio.open_connection(host, port)
                except (OSError, asyncio.TimeoutError):
                    continue
                self._consecutive_failures[backend_id] = 0
                self.node_scheduler.mark_up(backend_id)
                self._tm_readmissions.inc()
                self.failures.record(self._now(), BACKEND_READMITTED, backend_id)
                # The probe connection itself seeds the refilled pool.
                tune_transport(writer.transport)
                self.pool.put(backend_id, reader, writer)
                return
        finally:
            self._probing.discard(backend_id)

    def _record(
        self, backend_id: str, subscriber: str, usage: ResourceVector, completed: int
    ) -> None:
        bucket = self._buckets[backend_id]
        if subscriber not in bucket:
            bucket[subscriber] = [ResourceVector.ZERO, 0]
        bucket[subscriber][0] = bucket[subscriber][0] + usage
        bucket[subscriber][1] += completed
