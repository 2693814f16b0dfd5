"""A disk-channel model with per-I/O accounting.

"To collect the disk usage time of each thread, the disk driver records
the amount of time that each physical disk I/O takes and charges it to the
thread that issues the disk I/O request" (§3.5).  The channel services one
I/O at a time (FIFO); each I/O costs a positioning overhead plus a
size-proportional transfer time.

The channel is driven by completion callbacks rather than a simulated
process per I/O: a request either starts service immediately or joins the
FIFO, and each I/O costs exactly one scheduled event.  Charge order and
completion times match the process-per-I/O implementation bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.procs import SimProcess
from repro.sim.engine import Environment
from repro.sim.events import Event


class _IO:
    __slots__ = ("proc", "duration", "done")

    def __init__(self, proc: SimProcess, duration: float, done: Event) -> None:
        self.proc = proc
        self.duration = duration
        self.done = done


class Disk:
    """One disk channel.

    Parameters
    ----------
    seek_s:
        Positioning overhead (seek + rotational latency) per I/O.
    transfer_bps:
        Sustained transfer rate in bytes/second.
    """

    def __init__(
        self,
        env: Environment,
        seek_s: float = 0.0097,
        transfer_bps: float = 20e6,
    ) -> None:
        if seek_s < 0:
            raise ValueError("seek time must be non-negative")
        if transfer_bps <= 0:
            raise ValueError("transfer rate must be positive")
        self.env = env
        self.seek_s = float(seek_s)
        self.transfer_bps = float(transfer_bps)
        self.busy_s = 0.0
        self.io_count = 0
        self._started_at = env.now
        self._in_service = False
        self._pending: List[_IO] = []
        #: The I/O occupying the channel and when it seized it; lets
        #: :meth:`cancel` charge the partially-consumed channel time.
        self._current: Optional[_IO] = None
        self._current_started = 0.0
        #: Invalidates the scheduled completion of a cancelled I/O
        #: (heap entries cannot be removed).
        self._epoch = 0

    def __repr__(self) -> str:
        return "<Disk ios={} busy={:.3f}s>".format(self.io_count, self.busy_s)

    def io_time(self, nbytes: int) -> float:
        """Channel time one I/O of ``nbytes`` occupies."""
        return self.seek_s + nbytes / self.transfer_bps

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the channel spent busy."""
        elapsed = self.env.now - self._started_at
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_s / elapsed)

    @property
    def queue_length(self) -> int:
        """I/Os waiting for the channel (excludes the one in service)."""
        return len(self._pending)

    def read(self, proc: SimProcess, nbytes: int) -> Event:
        """Issue a read of ``nbytes`` charged to ``proc``.

        Returns an event that fires when the I/O completes; wait on it
        with ``yield disk.read(...)``.
        """
        if nbytes < 0:
            raise ValueError("negative read size")
        io = _IO(proc, self.io_time(nbytes), Event(self.env))
        if self._in_service:
            self._pending.append(io)
        else:
            self._start(io)
        return io.done

    def cancel(self, done: Event) -> bool:
        """Abort the issued I/O whose completion event is ``done``.

        Channel time already consumed stays charged to the issuing
        process; the remainder is freed immediately (the next pending
        I/O starts at once) and ``done`` fires so the waiting process
        resumes and can observe the cancellation.  A cancelled I/O does
        not count toward :attr:`io_count` — it never completed.
        Returns ``False`` if the I/O is unknown — already completed or
        never issued.
        """
        for index, io in enumerate(self._pending):
            if io.done is done:
                del self._pending[index]
                done.succeed(None)
                return True
        current = self._current
        if current is None or current.done is not done:
            return False
        elapsed = self.env.now - self._current_started
        if elapsed > 0.0:
            current.proc.charge_disk(elapsed)
            self.busy_s += elapsed
        self._epoch += 1
        self._current = None
        if self._pending:
            self._start(self._pending.pop(0))
        else:
            self._in_service = False
        done.succeed(None)
        return True

    # -- internal -------------------------------------------------------

    def _start(self, io: _IO) -> None:
        self._in_service = True
        self._current = io
        self._current_started = self.env.now
        self._epoch += 1
        self.env.call_later(io.duration, self._complete, io, self._epoch)

    def _complete(self, io: _IO, epoch: int) -> None:
        if epoch != self._epoch:
            return
        io.proc.charge_disk(io.duration)
        self.busy_s += io.duration
        self.io_count += 1
        self._current = None
        io.done.succeed(None)
        if self._pending:
            self._start(self._pending.pop(0))
        else:
            self._in_service = False
