"""A time-sliced round-robin CPU scheduler with per-thread accounting.

The RPN "runs on the Linux kernel, which already keeps track of the CPU
usage of each active thread" (§3.5).  This model reproduces that: work is
executed in quantum-sized slices, each slice charged to the owning
simulated process, so concurrent requests interleave fairly and the
accounting walk sees accurate per-thread CPU time.

Implementation note: the slicing is *semantic*, not evented.  With a
single runnable task (by far the common case in cluster runs) the CPU
schedules exactly one completion callback for the whole burst and replays
the per-slice charge arithmetic lazily — either when the burst ends or
when someone needs current numbers (:meth:`CPU.settle`, called by the
accounting walk).  The replay performs float-for-float the operations the
evented slicer would have (``min(quantum, remaining)``, per-boundary
additions), so charges and completion times are bit-identical while the
event count per request drops from one-per-slice to one.  With several
runnable tasks the CPU steps slice by slice via cheap scheduled
callbacks, preserving the exact round-robin interleaving.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.procs import SimProcess
from repro.sim.engine import Environment
from repro.sim.events import Event

#: Residual work below this is dropped, matching the evented slicer's
#: re-queue threshold: a task whose remainder dips under it is finished.
_RESIDUE_S = 1e-12


class _Task:
    __slots__ = ("proc", "remaining", "done")

    def __init__(self, proc: SimProcess, remaining: float, done: Event) -> None:
        self.proc = proc
        self.remaining = remaining
        self.done = done


class CPU:
    """One processor executing work for simulated processes.

    Parameters
    ----------
    speed:
        Relative speed factor; a duration ``d`` submitted to a CPU of
        speed ``s`` takes ``d / s`` seconds of simulated time.
    quantum_s:
        Round-robin time slice.
    """

    def __init__(
        self, env: Environment, speed: float = 1.0, quantum_s: float = 0.001
    ) -> None:
        if speed <= 0:
            raise ValueError("CPU speed must be positive")
        if quantum_s <= 0:
            raise ValueError("quantum must be positive")
        self.env = env
        self.speed = float(speed)
        self.quantum_s = float(quantum_s)
        self.busy_s = 0.0
        self._started_at = env.now
        #: Tasks awaiting their next slice; excludes the one in service.
        self._runqueue: List[_Task] = []
        #: The task whose slice or burst is currently in flight.
        self._current: Optional[_Task] = None
        #: True while the in-flight task runs as a single batched burst
        #: (sole runnable task); its per-slice charges are then applied
        #: lazily from (_burst_t, _burst_rem) by :meth:`settle`.
        self._bursting = False
        self._burst_t = 0.0
        self._burst_rem = 0.0
        #: Invalidates scheduled slice/burst callbacks that a newer
        #: arrival has superseded (heap entries cannot be removed).
        self._epoch = 0
        #: End time and length of the in-flight slice while stepping
        #: (meaningless during a burst); lets :meth:`cancel` charge the
        #: partially-consumed slice mid-flight.
        self._slice_end = 0.0
        self._slice_len = 0.0

    def __repr__(self) -> str:
        return "<CPU runnable={} busy={:.3f}s>".format(self.runnable, self.busy_s)

    @property
    def runnable(self) -> int:
        """Tasks currently on the run queue (including the one in service)."""
        return len(self._runqueue) + (1 if self._current is not None else 0)

    def utilization(self) -> float:
        """Fraction of elapsed simulated time this CPU spent busy."""
        self.settle()
        elapsed = self.env.now - self._started_at
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_s / elapsed)

    def reset_utilization(self) -> None:
        """Restart the utilization window at the current instant."""
        self.settle()
        self.busy_s = 0.0
        self._started_at = self.env.now

    def settle(self) -> None:
        """Apply every slice charge due at or before the current instant.

        Accounting readers (the §3.5 usage walk, utilization gauges) call
        this so lazily-batched bursts are indistinguishable from evented
        slicing.
        """
        if self._bursting:
            self._replay_until(self.env.now)

    def execute(self, proc: SimProcess, duration_s: float) -> Event:
        """Submit ``duration_s`` of CPU work on behalf of ``proc``.

        Returns an event that fires when the work has been fully executed;
        every slice is charged to ``proc``.
        """
        if duration_s < 0:
            raise ValueError("negative CPU work")
        done = Event(self.env)
        remaining = duration_s / self.speed
        if remaining <= _RESIDUE_S:
            # Below the slicer's residue threshold there is no slice to
            # schedule or charge.
            done.succeed(None)
            return done
        task = _Task(proc, remaining, done)
        if self._current is None:
            self._current = task
            self._begin_burst(self.env.now)
        elif self._bursting:
            # The burst's no-contention assumption just broke: charge the
            # boundaries that already elapsed, then fall back to stepped
            # slicing with the in-flight slice keeping its exact end time.
            now = self.env.now
            self._replay_until(now)
            self._bursting = False
            current = self._current
            current.remaining = self._burst_rem
            self._epoch += 1
            boundary = self._burst_t + self._slice_of(current.remaining)
            self._slice_end = boundary
            self._slice_len = boundary - self._burst_t
            self.env.call_at(boundary, self._on_slice_end, self._epoch)
            self._runqueue.append(task)
        else:
            self._runqueue.append(task)
        return done

    def cancel(self, done: Event) -> bool:
        """Abort the submitted work whose completion event is ``done``.

        Work already executed stays charged to the owning process (the
        accounting walk must see resources actually consumed); the
        remainder is dropped and ``done`` fires so the waiting process
        resumes and can observe the cancellation.  Returns ``False`` if
        the work is unknown — already completed or never submitted.
        """
        for index, task in enumerate(self._runqueue):
            if task.done is done:
                # Queued behind the running task: nothing consumed yet.
                del self._runqueue[index]
                done.succeed(None)
                return True
        current = self._current
        if current is None or current.done is not done:
            return False
        now = self.env.now
        if self._bursting:
            self._replay_until(now)
            partial = now - self._burst_t
        else:
            partial = now - (self._slice_end - self._slice_len)
        if partial > 0.0:
            current.proc.charge_cpu(partial)
            self.busy_s += partial
        self._bursting = False
        self._epoch += 1
        if self._runqueue:
            self._current = self._runqueue.pop(0)
            if self._runqueue:
                boundary = now + self._slice_of(self._current.remaining)
                self._slice_end = boundary
                self._slice_len = boundary - now
                self.env.call_at(boundary, self._on_slice_end, self._epoch)
            else:
                self._begin_burst(now)
        else:
            self._current = None
        done.succeed(None)
        return True

    # -- internal -------------------------------------------------------

    def _slice_of(self, remaining: float) -> float:
        # Same tie behavior as min(quantum, remaining).
        return remaining if remaining < self.quantum_s else self.quantum_s

    def _begin_burst(self, start: float) -> None:
        """Run the sole runnable task as one batched burst from ``start``."""
        self._bursting = True
        self._burst_t = start
        self._burst_rem = self._current.remaining
        # Replay the slice arithmetic the evented scheduler would do —
        # per-boundary rounding included — to find the exact end time.
        t = start
        rem = self._burst_rem
        q = self.quantum_s
        while rem > _RESIDUE_S:
            s = rem if rem < q else q
            t = t + s
            rem = rem - s
        self._epoch += 1
        self.env.call_at(t, self._on_burst_end, self._epoch)

    def _replay_until(self, limit: float) -> None:
        """Charge every burst slice whose boundary is at or before ``limit``."""
        t = self._burst_t
        rem = self._burst_rem
        q = self.quantum_s
        proc = self._current.proc
        busy = self.busy_s
        while rem > _RESIDUE_S:
            s = rem if rem < q else q
            boundary = t + s
            if boundary > limit:
                break
            # proc.charge_cpu(s) in place: the same addition, and its
            # negative-charge check cannot fire (s > _RESIDUE_S > 0).
            proc.cpu_s += s
            busy += s
            t = boundary
            rem = rem - s
        self.busy_s = busy
        self._burst_t = t
        self._burst_rem = rem

    def _on_burst_end(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._replay_until(self.env.now)
        task = self._current
        self._bursting = False
        self._current = None
        task.done.succeed(None)

    def _on_slice_end(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        task = self._current
        s = self._slice_of(task.remaining)
        task.remaining -= s
        task.proc.charge_cpu(s)
        self.busy_s += s
        if task.remaining > _RESIDUE_S:
            self._runqueue.append(task)
            self._current = self._runqueue.pop(0)
        else:
            task.done.succeed(None)
            if not self._runqueue:
                self._current = None
                return
            self._current = self._runqueue.pop(0)
        if self._runqueue:
            self._epoch += 1
            boundary = self.env.now + self._slice_of(self._current.remaining)
            self._slice_end = boundary
            self._slice_len = boundary - self.env.now
            self.env.call_at(boundary, self._on_slice_end, self._epoch)
        else:
            self._begin_burst(self.env.now)
