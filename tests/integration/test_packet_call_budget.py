"""The packet path, held to a Python call budget.

The committed packet-fidelity golden scenario (three RPNs, two
subscribers inside their reservation, one flooding past an 8-deep
queue), run for 6 simulated seconds under :mod:`cProfile`, set-up
included.  At 21 frames per request, every call a frame makes on its
way through ``repro.net`` — link hop, switch, NIC, TCP, splice remap,
header copy — shows here several times over.  Call counts are exact
for a tree and a scenario, so they resolve where host time cannot.

The ceiling of 1 700 calls per completed request was set from
measurement: value-hashed addresses, hops that re-read ``total_len``
and a ``setattr`` loop in ``Packet.copy`` made 2 205.9; interned
addresses, hops that carry their size and one-call header rewrites make
1 615.6, the same under ``PYTHONHASHSEED`` 0–3.  The ceiling leaves room
for that and little else.  It moves only with a measured reason,
recorded with the change that moves it.
"""

import cProfile
import os
import pstats

from repro.harness import golden_packet_cluster

#: Engine events of the 6 s run; the call savings must not move it.
EVENTS = 103_292
CALLS_PER_REQUEST_CEILING = 1700.0

#: Calls the packet path makes none of: (callee, caller file, caller) as
#: :func:`calls` takes them.  ``scripts/profile_run.py packet-calls``
#: prints the same counts.
ZERO_CALLS = (
    # Interned addresses hash and compare by identity, in C.
    (("addresses.py", "__hash__"), None, None),
    (("addresses.py", "__eq__"), None, None),
    # A hop carries its size; it never asks the packet again.
    (("packet.py", "total_len"), "link.py", None),
    # A header rewrite is one constructor call.
    (("~", "<built-in method builtins.setattr>"), "packet.py", "copy"),
)


def calls(stats, callee, caller_file=None, caller=None):
    """Calls of ``callee`` (file, name) — from ``caller_file`` only, or
    from its function ``caller`` only, when given.  Built-ins are
    (``"~"``, ``"<built-in method builtins.NAME>"``)."""
    total = 0
    for (path, _line, name), (_cc, ncalls, _tt, _ct, callers) in stats.stats.items():
        if (os.path.basename(path), name) != callee:
            continue
        if caller_file is None:
            total += ncalls
            continue
        for (caller_path, _l, caller_name), counts in callers.items():
            if os.path.basename(caller_path) == caller_file and caller in (None, caller_name):
                total += counts[1]
    return total


def test_packet_path_stays_inside_its_call_budget():
    profiler = cProfile.Profile()
    profiler.enable()
    cluster = golden_packet_cluster(duration_s=6.0)
    profiler.disable()
    stats = pstats.Stats(profiler)
    completed = len(cluster.completions)

    assert cluster.env.events_dispatched == EVENTS
    for callee, caller_file, caller in ZERO_CALLS:
        assert calls(stats, callee, caller_file, caller) == 0, callee
    assert stats.total_calls / completed <= CALLS_PER_REQUEST_CEILING
