"""Contention primitive: :class:`Resource`, a server with integer capacity
(e.g. a worker-process slot) whose requests queue FIFO.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.sim.events import URGENT_PRIORITY, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ... hold the resource ...
        # released on exit
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """A server with fixed integer capacity and a FIFO wait queue."""

    __slots__ = ("env", "_capacity", "_users", "_queue")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got {}".format(capacity))
        self.env = env
        self._capacity = int(capacity)
        self._users: List[Request] = []
        self._queue: List[Request] = []

    def __repr__(self) -> str:
        return "<{} users={}/{} queued={}>".format(
            type(self).__name__, len(self._users), self._capacity, len(self._queue)
        )

    @property
    def capacity(self) -> int:
        """Maximum number of simultaneous holders."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for the resource."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim one unit of capacity; the returned event fires when granted.

        It fires with ``None``, not with itself: an event that is its own
        value is a reference cycle, left for the garbage collector.
        """
        req = Request(self)
        self._queue.append(req)
        self._dispatch()
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted unit of capacity."""
        if request in self._users:
            self._users.remove(request)
            self._dispatch()
        else:
            self._cancel(request)

    def _cancel(self, request: Request) -> None:
        if request in self._queue:
            self._queue.remove(request)

    def _dispatch(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            req = self._queue.pop(0)
            self._users.append(req)
            req._ok = True
            req._value = None
            self.env.schedule(req, delay=0.0, priority=URGENT_PRIORITY)
