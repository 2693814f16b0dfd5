"""The simulation event loop and clock."""

from __future__ import annotations

import heapq
import time
from array import array
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import NORMAL_PRIORITY, URGENT_PRIORITY, Event, Timeout
from repro.sim.process import Process, ProcessGenerator
from repro.telemetry.registry import get_registry

__all__ = [
    "Deadline",
    "Environment",
    "NORMAL_PRIORITY",
    "TimerStream",
    "URGENT_PRIORITY",
]

#: Telemetry publication period, in processed events.  Power of two so
#: the hot loop's check is a single mask; the amortized cost per event
#: is a couple of integer operations.
_PUBLISH_MASK = 4096 - 1


#: The heap payload of a scheduled call: ``(fn, args)``, invoked as
#: ``fn(*args)`` when popped — no :class:`Event`, callbacks list or
#: closure, and a tuple is built in C where a record class would run a
#: Python ``__init__`` per call.  It cannot fail, cannot be waited on, and
#: carries no value.  Events are never tuples, so ``type(payload) is
#: tuple`` tells the two heap items apart.
_Callback = Tuple[Callable[..., object], Tuple[object, ...]]

_HeapItem = Tuple[float, int, int, object]


#: An item slot of a :class:`TimerStream` that fired or was released
#: (items themselves may be ``None``).
_DONE: Any = object()


class TimerStream:
    """Timers that fire in the order they were armed, one heap entry at a time.

    Each timer is an item, a fire time and the sequence number reserved
    when it was armed, so it fires ``fn(item)`` under exactly the heap key
    ``(time, NORMAL_PRIORITY, seq)`` that a ``call_later`` or
    :class:`Timeout` created at that moment would have had.  Fire times
    must not decrease in arming order (one fixed delay armed as time
    advances, or a batch sorted up front), so the stream's earliest
    pending timer is its first, and only that one is on the heap.

    :meth:`release` withdraws a timer and drops its item at once.  If the
    released timer's entry is already on the heap, that entry still pops
    at its time, as one event that calls nothing and pushes the next
    pending timer; so a stream of fixed-delay deadlines that are all
    released costs at most one event per delay, however many it arms.
    Firing pushes the successor *before* calling ``fn``, so the heap
    always holds the stream's earliest pending timer even if ``fn`` raises
    or stops the run.  The heap entry's payload is built per push, so a
    stream nothing else references is freed once its last timer fires.
    """

    __slots__ = ("_env", "_fn", "_times", "_seqs", "_items", "_base", "_head", "_pushed")

    def __init__(self, env: "Environment", fn: Callable[[Any], object]) -> None:
        self._env = env
        self._fn = fn
        self._times = array("d")
        self._seqs = array("q")
        self._items: List[Any] = []
        #: Token of ``_items[0]``: tokens number timers in arming order.
        self._base = 0
        #: Index of the first timer neither fired nor released.
        self._head = 0
        #: Token of the timer whose key is on the heap, or -1.
        self._pushed = -1

    def arm(self, delay: float, item: Any) -> int:
        """Fire ``fn(item)`` ``delay`` seconds from now; returns its token."""
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay={})".format(delay))
        env = self._env
        when = env.now + delay
        times = self._times
        if times and when < times[-1]:
            raise SimulationError(
                "timer at {} armed after one at {}".format(when, times[-1])
            )
        env._seq += 1
        times.append(when)
        self._seqs.append(env._seq)
        self._items.append(item)
        if self._pushed < 0:  # nothing pending: this timer is the head
            self._push()
        return self._base + len(times) - 1

    def release(self, token: int) -> None:
        """Withdraw timer ``token``; a no-op once it has fired or been released."""
        index = token - self._base
        if index < self._head:
            return
        self._items[index] = _DONE
        if index == self._head:
            self._advance()

    def _load(self, times: array[float], seqs: array[int], items: List[Any]) -> None:
        """Arm a batch already sorted by time under reserved sequence numbers."""
        self._times = times
        self._seqs = seqs
        self._items = items
        self._push()

    def _push(self) -> None:
        head = self._head
        self._pushed = self._base + head
        heapq.heappush(
            self._env._heap,
            (self._times[head], NORMAL_PRIORITY, self._seqs[head], (self._fire, ())),
        )

    def _advance(self) -> None:
        """Move the head past timers that are done; drop a long done prefix."""
        items = self._items
        head = self._head
        count = len(items)
        while head < count and items[head] is _DONE:
            head += 1
        if head >= 1024 and 2 * head >= count:
            cut = min(head, count - 1)  # keep the last time for arm()'s check
            del self._times[:cut]
            del self._seqs[:cut]
            del items[:cut]
            self._base += cut
            head -= cut
        self._head = head

    def _fire(self) -> None:
        item = _DONE
        if self._pushed == self._base + self._head:  # else released once pushed
            items = self._items
            item = items[self._head]
            items[self._head] = _DONE  # the stream no longer keeps it alive
            self._advance()
        self._pushed = -1
        if self._head < len(self._items):
            self._push()
        if item is not _DONE:
            self._fn(item)


class Deadline(Event):
    """A :class:`Timeout` armed through a :class:`TimerStream`.

    It occurs with ``None`` under the key a ``Timeout`` of the same delay
    created at the same moment would have, and runs its callbacks as the
    dispatch loop would have run the ``Timeout``'s.  :meth:`release`
    withdraws it: it never occurs, and neither it nor the stream keeps a
    reference to what was waiting on it.
    """

    __slots__ = ("_stream", "_token")

    def __init__(self, stream: TimerStream, delay: float) -> None:
        super().__init__(stream._env)
        self._stream = stream
        self._token = stream.arm(delay, self)

    @staticmethod
    def stream(env: "Environment") -> TimerStream:
        """A stream to arm deadlines on, one per fixed delay."""
        return TimerStream(env, Deadline._occur)

    def release(self) -> None:
        """Withdraw the deadline; a no-op once it has occurred."""
        if self.callbacks is not None:
            self.callbacks = []
            self._stream.release(self._token)

    def _occur(self) -> None:
        self._ok = True
        self._value = None
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:  # type: ignore[union-attr]
            callback(self)


class Environment:
    """A discrete-event simulation environment.

    The environment owns the simulated clock (:attr:`now`) and the event
    heap.  Events scheduled for the same instant are processed in
    (priority, insertion order), which makes runs fully deterministic.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock, in seconds.
    """

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_active_process",
        "events_dispatched",
        "queue_depth_peak",
        "_events_published",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time in seconds.  A plain attribute rather
        #: than a property: every component reads it on its hot path, and
        #: a property costs a Python call per read.  Only the engine
        #: writes it.
        self.now = float(initial_time)
        self._heap: List[_HeapItem] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: Lifetime count of events processed by :meth:`step` / :meth:`run`.
        self.events_dispatched = 0
        #: Most heap entries seen at once (telemetry: scheduling pressure).
        #: A :class:`TimerStream` counts as one entry, however many of its
        #: timers are still pending.
        self.queue_depth_peak = 0
        self._events_published = 0

    def __repr__(self) -> str:
        return "<Environment t={:.6f} pending={}>".format(self.now, len(self._heap))

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event creation helpers ----------------------------------------

    def event(self) -> Event:
        """Create an untriggered :class:`Event` bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create a :class:`Timeout` that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new simulated :class:`Process` from a generator."""
        return Process(self, generator)

    def call_later(self, delay: float, fn: Callable[..., object], *args: object) -> None:
        """Invoke ``fn(*args)`` after ``delay`` seconds of simulated time.

        Lighter than spawning a process; used for fire-and-forget actions
        such as delivering a frame after propagation delay.  The scheduled
        call is anonymous — it cannot be waited on or cancelled.
        """
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay={})".format(delay))
        self._seq += 1
        heapq.heappush(
            self._heap,
            (self.now + delay, NORMAL_PRIORITY, self._seq, (fn, args)),
        )

    def call_later_each(
        self, delays: Sequence[float], fn: Callable[[Any], object], items: Sequence[Any]
    ) -> None:
        """Invoke ``fn(item)`` for each item, ``delay`` seconds from now.

        Exactly ``for d, x in zip(delays, items): self.call_later(d, fn, x)``
        — same fire times (``now + d``), same tie order, same number of
        dispatched events — except that only the batch's next item sits in
        the heap, so scheduling a whole trace up front costs one heap entry
        rather than one per record.  Each item is released once it has fired.
        Unlike ``zip``, lengths must match; nothing is scheduled on error.
        """
        if len(delays) != len(items):
            raise ValueError("{} delays for {} items".format(len(delays), len(items)))
        for delay in delays:
            if delay < 0:
                raise SimulationError(
                    "cannot schedule into the past (delay={})".format(delay)
                )
        if not delays:
            return
        now = self.now
        times = [now + delay for delay in delays]
        order = sorted(range(len(times)), key=times.__getitem__)
        # The loop would have numbered the items seq+1, seq+2, ... in input
        # order; reserve that block and keep each item's number.
        first = self._seq + 1
        self._seq += len(times)
        TimerStream(self, fn)._load(  # pushes its first item; each firing pushes the next
            array("d", map(times.__getitem__, order)),
            array("q", (first + index for index in order)),
            [items[index] for index in order],
        )

    def call_at(self, when: float, fn: Callable[..., object], *args: object) -> None:
        """Invoke ``fn(*args)`` at absolute simulated time ``when``.

        Unlike :meth:`call_later`, the fire time is taken verbatim — no
        ``now + delay`` float round-trip — which lets callers that
        precomputed an exact event time (e.g. a resource rescheduling a
        slice boundary) hit it bit-for-bit.
        """
        if when < self.now:
            raise SimulationError(
                "cannot schedule into the past (when={}, now={})".format(when, self.now)
            )
        self._seq += 1
        heapq.heappush(self._heap, (when, NORMAL_PRIORITY, self._seq, (fn, args)))

    # -- scheduling -----------------------------------------------------

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL_PRIORITY
    ) -> None:
        """Place a triggered event on the heap ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay={})".format(delay))
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event from the heap."""
        if not self._heap:
            raise SimulationError("no events scheduled")
        depth = len(self._heap)
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth
        self.events_dispatched += 1
        if not (self.events_dispatched & _PUBLISH_MASK):
            self._publish_telemetry()
        item = heapq.heappop(self._heap)
        self.now = item[0]
        popped = item[3]
        if type(popped) is tuple:
            popped[0](*popped[1])
            return
        # Heap items are only ever Events or (fn, args) payloads; the
        # annotation re-narrows what the heterogeneous heap tuple erased.
        event: Event = popped  # type: ignore[assignment]
        callbacks = event.callbacks
        if callbacks is None:
            raise SimulationError("event processed twice: {!r}".format(event))
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure with nobody waiting is a programming
            # error; surface it instead of silently dropping it.
            raise event._value  # type: ignore[misc]

    def run(self, until: object = None) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the heap drains; a number — run until that
            simulated time; an :class:`Event` — run until it is processed
            and return its value.
        """
        stop_at: Optional[float] = None
        wait_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            wait_event = until
            wait_callbacks = wait_event.callbacks
            if wait_callbacks is None:  # already processed
                return wait_event.value
            wait_callbacks.append(self._stop_on_event)
        else:
            stop_at = float(until)  # type: ignore[arg-type]
            if stop_at < self.now:
                raise SimulationError(
                    "until={} is in the past (now={})".format(stop_at, self.now)
                )
        sim_start = self.now
        wall_start = time.perf_counter()
        # The dispatch loop below is `step()` unrolled with everything
        # bound to locals: one heap pop, one type check, and the callback
        # call(s) per event.  Counters sync back on exit and at every
        # telemetry publication point.
        heap = self._heap
        pop = heapq.heappop
        dispatched = self.events_dispatched
        peak = self.queue_depth_peak
        try:
            try:
                while heap:
                    if stop_at is not None and heap[0][0] > stop_at:
                        self.now = stop_at
                        return None
                    depth = len(heap)
                    if depth > peak:
                        peak = depth
                    dispatched += 1
                    item = pop(heap)
                    self.now = item[0]
                    if not (dispatched & _PUBLISH_MASK):
                        self.events_dispatched = dispatched
                        self.queue_depth_peak = peak
                        self._publish_telemetry()
                    popped = item[3]
                    if type(popped) is tuple:
                        # Fast path: call_later timers are the single most
                        # common heap item in cluster runs.
                        popped[0](*popped[1])
                        continue
                    event: Event = popped  # type: ignore[assignment]
                    callbacks = event.callbacks
                    if callbacks is None:
                        raise SimulationError(
                            "event processed twice: {!r}".format(event)
                        )
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value  # type: ignore[misc]
            except StopSimulation as stop:
                return stop.value
            if wait_event is not None and not wait_event.processed:
                raise SimulationError(
                    "run(until=event) finished before the event triggered"
                )
            if stop_at is not None:
                self.now = stop_at
            return None
        finally:
            self.events_dispatched = dispatched
            self.queue_depth_peak = peak
            self._note_run_speed(sim_start, wall_start)

    def _note_run_speed(self, sim_start: float, wall_start: float) -> None:
        """Publish the virtual-vs-wall time ratio of the finished run."""
        wall_elapsed = time.perf_counter() - wall_start
        sim_elapsed = self.now - sim_start
        if wall_elapsed <= 0 or sim_elapsed <= 0:
            return
        get_registry().gauge("repro.sim.virtual_wall_ratio").set(
            sim_elapsed / wall_elapsed
        )
        self._publish_telemetry()

    def _publish_telemetry(self) -> None:
        """Sync the cheap in-object counters into the metric registry.

        Runs every ``_PUBLISH_MASK + 1`` processed events (and at the end
        of each :meth:`run`), so the per-event hot path stays at plain
        integer arithmetic while snapshots remain fresh.

        ``repro.sim.queue_depth`` (now) and ``repro.sim.queue_depth_peak``
        (largest seen) count heap entries, not pending callbacks: a
        :class:`TimerStream` is one entry while any of its timers is pending.
        """
        registry = get_registry()
        delta = self.events_dispatched - self._events_published
        if delta:
            registry.counter("repro.sim.events_dispatched").inc(delta)
            self._events_published = self.events_dispatched
        registry.gauge("repro.sim.queue_depth").set(len(self._heap))
        peak = registry.gauge("repro.sim.queue_depth_peak")
        if self.queue_depth_peak > peak.value:
            peak.set(self.queue_depth_peak)
        registry.tick()

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        if not event._ok:
            event._defused = True
            raise event._value  # type: ignore[misc]
        raise StopSimulation(event._value)
