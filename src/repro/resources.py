"""The generic-request QoS currency (§3.1 of the paper).

This lives at the package root (rather than inside :mod:`repro.core`)
because both the Gage core and the cluster substrate account in it;
:mod:`repro.core.grps` re-exports everything here.

Gage expresses QoS as *generic URL requests per second* (GRPS).  A generic
request "represents an average web site access and is assumed to take
10 msec of CPU time, 10 msec of disk channel usage time, and 2000 bytes of
network bandwidth".  A subscriber reserving 50 GRPS is therefore entitled,
every second, to 500 ms of CPU, 500 ms of disk channel time, and
100 KBytes of outgoing bandwidth from the cluster.

:class:`ResourceVector` is the three-dimensional quantity all accounting,
balances, and capacities are expressed in.
"""

from __future__ import annotations

from typing import NamedTuple

#: C-level constructor used by the arithmetic methods: vector ops run tens
#: of thousands of times per simulated second of credit scheduling, and
#: the keyword-processing path of the generated ``__new__`` is measurable.
_new = tuple.__new__


class ResourceVector(NamedTuple):
    """An amount of the three managed resources.

    A :class:`~typing.NamedTuple` rather than a dataclass: immutable and
    hashable like before, but construction, equality, and componentwise
    arithmetic all run at C speed on the credit-scheduler hot path.

    Attributes
    ----------
    cpu_s:
        CPU time, in seconds.
    disk_s:
        Disk channel usage time, in seconds.
    net_bytes:
        Network bandwidth consumed on the outgoing link, in bytes.
    """

    cpu_s: float = 0.0
    disk_s: float = 0.0
    net_bytes: float = 0.0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return _new(
            ResourceVector,
            (self[0] + other[0], self[1] + other[1], self[2] + other[2]),
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return _new(
            ResourceVector,
            (self[0] - other[0], self[1] - other[1], self[2] - other[2]),
        )

    def scaled(self, factor: float) -> "ResourceVector":
        """This vector multiplied componentwise by ``factor``."""
        return _new(
            ResourceVector, (self[0] * factor, self[1] * factor, self[2] * factor)
        )

    def max(self, other: "ResourceVector") -> "ResourceVector":
        """Componentwise maximum."""
        return _new(
            ResourceVector,
            (
                self[0] if self[0] >= other[0] else other[0],
                self[1] if self[1] >= other[1] else other[1],
                self[2] if self[2] >= other[2] else other[2],
            ),
        )

    def clamped_min(self, floor: float = 0.0) -> "ResourceVector":
        """Componentwise ``max(component, floor)``."""
        return _new(
            ResourceVector,
            (
                self[0] if self[0] >= floor else floor,
                self[1] if self[1] >= floor else floor,
                self[2] if self[2] >= floor else floor,
            ),
        )

    @property
    def any_negative(self) -> bool:
        """True if any component is below zero (a queue balance exhausted)."""
        return (
            self.cpu_s < -self.EPSILON
            or self.disk_s < -self.EPSILON
            or self.net_bytes < -self.EPSILON
        )

    @property
    def all_nonnegative(self) -> bool:
        """True if every component is zero or above."""
        return not self.any_negative

    def covers(self, other: "ResourceVector") -> bool:
        """True if this vector is componentwise >= ``other``."""
        return (
            self.cpu_s >= other.cpu_s
            and self.disk_s >= other.disk_s
            and self.net_bytes >= other.net_bytes
        )

    def dominant_fraction_of(self, capacity: "ResourceVector") -> float:
        """The largest componentwise ratio self/capacity (load measure).

        Components with zero capacity are ignored; returns 0.0 when all
        capacity components are zero.
        """
        best = None
        c = capacity[0]
        if c > 0:
            best = self[0] / c
        c = capacity[1]
        if c > 0:
            r = self[1] / c
            if best is None or r > best:
                best = r
        c = capacity[2]
        if c > 0:
            r = self[2] / c
            if best is None or r > best:
                best = r
        return 0.0 if best is None else best

    def dominant_fraction_after(
        self, add: "ResourceVector", capacity: "ResourceVector"
    ) -> float:
        """``(self + add).dominant_fraction_of(capacity)``, without the sum.

        The same float operations in the same order (a sum whose
        capacity component is zero is never read), so the result is
        bit-equal; the dispatch headroom test runs this per node per pick.
        """
        best = None
        c = capacity[0]
        if c > 0:
            best = (self[0] + add[0]) / c
        c = capacity[1]
        if c > 0:
            r = (self[1] + add[1]) / c
            if best is None or r > best:
                best = r
        c = capacity[2]
        if c > 0:
            r = (self[2] + add[2]) / c
            if best is None or r > best:
                best = r
        return 0.0 if best is None else best

    def in_generic_requests(self, generic: "ResourceVector" = None) -> float:
        """This usage expressed as a number of generic requests.

        Uses the *dominant* (most constrained) resource, mirroring the
        scheduler's dispatch-until-any-balance-negative rule.
        """
        return self.dominant_fraction_of(generic or GENERIC_REQUEST)


#: Tolerance for negativity checks: balances are sums of many small
#: floats, so exact-zero results land within ±1e-6 of zero.  (Assigned
#: after the class body — NamedTuple bodies only admit field annotations.)
ResourceVector.EPSILON = 1e-6

#: The paper's definition of one generic URL request (§3.1).
GENERIC_REQUEST = ResourceVector(cpu_s=0.010, disk_s=0.010, net_bytes=2000.0)

#: A shared zero constant (immutable, safe to share).
ResourceVector.ZERO = ResourceVector(0.0, 0.0, 0.0)


def grps(count: float, generic: ResourceVector = GENERIC_REQUEST) -> ResourceVector:
    """The resource entitlement of ``count`` generic requests.

    ``grps(50)`` is what a 50-GRPS reservation earns per second: 0.5 s of
    CPU, 0.5 s of disk channel time, and 100 KB of network bandwidth.
    """
    return generic.scaled(count)
