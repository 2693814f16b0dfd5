"""Simulated OS process table with per-process resource accounting.

Gage's accounting model (§3.5) "assumes that a set of dedicated processes
are associated with each charging entity ... periodically Gage traverses
the kernel data structure that keeps track of parent-child relationships
among processes and sums up the resource usage of all the processes that
are associated with each charging entity."  This module is that kernel
data structure.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional

from repro.resources import ResourceVector


class SimProcess:
    """One simulated OS process/thread with cumulative resource usage."""

    __slots__ = ("pid", "name", "parent", "children", "alive", "cpu_s", "disk_s", "net_bytes")

    def __init__(self, pid: int, name: str, parent: Optional["SimProcess"]) -> None:
        self.pid = pid
        self.name = name
        self.parent = parent
        self.children: List["SimProcess"] = []
        self.alive = True
        self.cpu_s = 0.0
        self.disk_s = 0.0
        self.net_bytes = 0.0
        if parent is not None:
            parent.children.append(self)

    def __repr__(self) -> str:
        return "<SimProcess pid={} {} cpu={:.4f}s>".format(self.pid, self.name, self.cpu_s)

    def charge_cpu(self, seconds: float) -> None:
        """Account CPU time to this process."""
        if seconds < 0:
            raise ValueError("negative CPU charge")
        self.cpu_s += seconds

    def charge_disk(self, seconds: float) -> None:
        """Account disk channel time to this process."""
        if seconds < 0:
            raise ValueError("negative disk charge")
        self.disk_s += seconds

    def charge_net(self, nbytes: float) -> None:
        """Account outgoing network bytes to this process."""
        if nbytes < 0:
            raise ValueError("negative network charge")
        self.net_bytes += nbytes

    @property
    def usage(self) -> ResourceVector:
        """Cumulative usage of this process alone (not its children)."""
        return ResourceVector(self.cpu_s, self.disk_s, self.net_bytes)

    def subtree(self, include_dead: bool = True) -> Iterator["SimProcess"]:
        """This process and its descendants, depth-first.

        Dead descendants are included by default: a process that exits
        between two accounting cycles (e.g. a CGI program) must still
        have its final usage visible to the next walk, exactly as Linux
        keeps task accounting until the parent reaps it.
        """
        yield self
        for child in self.children:
            if include_dead or child.alive:
                yield from child.subtree(include_dead=include_dead)

    def live_subtree(self) -> Iterator["SimProcess"]:
        """Only the live members of the subtree."""
        return (proc for proc in self.subtree(include_dead=False) if proc.alive)

    def subtree_usage(self) -> ResourceVector:
        """Summed usage over the whole subtree — the accounting-cycle walk.

        Depth-first in :meth:`subtree` order, dead descendants included,
        so the float additions happen in the order they always did.
        """
        cpu_s = disk_s = net_bytes = 0.0
        stack = [self]
        while stack:
            proc = stack.pop()
            cpu_s += proc.cpu_s
            disk_s += proc.disk_s
            net_bytes += proc.net_bytes
            if proc.children:
                stack.extend(reversed(proc.children))
        return ResourceVector(cpu_s, disk_s, net_bytes)


class ProcessTable:
    """The per-machine table of simulated processes."""

    def __init__(self) -> None:
        self._pids = itertools.count(1)
        self._procs: Dict[int, SimProcess] = {}
        init = SimProcess(next(self._pids), "init", None)
        self._procs[init.pid] = init
        self._init = init

    def __len__(self) -> int:
        return len(self._procs)

    @property
    def init(self) -> SimProcess:
        """The root of the process tree (pid 1)."""
        return self._init

    def spawn(self, name: str, parent: Optional[SimProcess] = None) -> SimProcess:
        """Create a new process; defaults to a child of init."""
        proc = SimProcess(next(self._pids), name, parent or self._init)
        self._procs[proc.pid] = proc
        return proc

    def get(self, pid: int) -> Optional[SimProcess]:
        """Look up a process by pid."""
        return self._procs.get(pid)

    def kill(self, proc: SimProcess) -> None:
        """Mark a process (and its subtree) dead; usage is retained.

        Dead processes stay in the table so an in-flight accounting cycle
        can still read their final usage, matching how Linux keeps task
        accounting until reaped.
        """
        for member in list(proc.subtree()):
            member.alive = False

    def total_usage(self) -> ResourceVector:
        """Machine-wide usage: the sum over every process ever charged."""
        total = ResourceVector.ZERO
        for proc in self._procs.values():
            total = total + proc.usage
        return total
