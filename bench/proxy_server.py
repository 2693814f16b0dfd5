"""Child process of the proxy workloads: the back ends, or the proxy alone.

Started by :class:`proxybench.Rig` as ``python proxy_server.py`` with the
role and its parameters as one JSON line on stdin, so the system under
test runs in a process of its own and its CPU time and peak memory can
be read apart from the load generator's.

Control is JSON lines over the child's stdin/stdout:

- on start the child prints ``{"ready": true, "ports": [...]}``;
- ``{"cmd": "mark", "profile": "start"|"stop"|null}`` is answered with
  the child's ``time.process_time()``, peak RSS, the proxy's
  ``GageProxy.stats``, the telemetry registry snapshot and the splice
  counters — all cumulative, the parent subtracts two marks to get one
  window's counts; with ``"profile": "stop"`` also the per-layer self
  times since ``"start"``;
- ``{"cmd": "stop"}`` — or stdin reaching EOF because the parent died —
  stops the servers (the back ends remove their temp files) and exits.

Ports are ephemeral; the parent learns them from the ready line.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import resource
import sys
import time
from typing import Dict, List, Optional

from common import add_src_to_path
from layers import LayerProfile

add_src_to_path()
from repro import telemetry  # noqa: E402
from repro.core import GageConfig, Subscriber  # noqa: E402
from repro.proxy import BackendServer, GageProxy  # noqa: E402


def _splice_counters() -> Optional[object]:
    """``repro.proxy.splice.splice_stats`` if the build still has it."""
    try:
        from repro.proxy.splice import splice_stats
    except ImportError:
        return None
    return splice_stats


def _reply(message: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


class _Child:
    """The servers of one role plus the state the control loop reports."""

    def __init__(self, params: Dict[str, object]) -> None:
        self.params = params
        self.backends: List[BackendServer] = []
        self.proxy: Optional[GageProxy] = None
        self.profile: Optional[LayerProfile] = None

    async def start(self) -> List[int]:
        if self.params["role"] == "backends":
            for _ in range(int(self.params["count"])):
                backend = BackendServer(
                    self.params["sites"], time_scale=float(self.params["time_scale"])
                )
                self.backends.append(backend)
            return [await backend.start() for backend in self.backends]
        subscribers = [
            Subscriber(name, grps, queue_capacity=capacity)
            for name, grps, capacity in self.params["subscribers"]
        ]
        backends = {
            backend_id: (host, port)
            for backend_id, (host, port) in self.params["backends"].items()
        }
        self.proxy = GageProxy(
            subscribers, backends, config=GageConfig(**self.params["config"])
        )
        return [await self.proxy.start()]

    async def stop(self) -> None:
        if self.proxy is not None:
            await self.proxy.stop()
        for backend in self.backends:
            await backend.stop()

    def mark(self, command: Dict[str, object]) -> Dict[str, object]:
        # Read the clock first: reducing a profile below costs CPU of its own.
        reply: Dict[str, object] = {"process_time": time.process_time()}
        if command.get("profile") == "stop" and self.profile is not None:
            reply["layers"] = self.profile.stop()
            reply["traced_wall_s"] = self.profile.wall_s
            self.profile = None
        splice = _splice_counters()
        reply.update(
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            stats=dataclasses.asdict(self.proxy.stats) if self.proxy else None,
            registry=telemetry.get_registry().snapshot(),
            splice=splice.snapshot() if splice is not None else None,
            sendfile_served=sum(
                getattr(backend, "sendfile_served", 0) for backend in self.backends
            ),
        )
        if command.get("profile") == "start":
            self.profile = LayerProfile()
            self.profile.start()
        return reply


async def _serve() -> None:
    loop = asyncio.get_running_loop()
    child = _Child(json.loads(sys.stdin.readline()))
    try:
        _reply({"ready": True, "ports": await child.start()})
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command = json.loads(line) if line.strip() else {"cmd": "stop"}
            if command["cmd"] == "stop":
                break
            _reply(child.mark(command))
    finally:
        await child.stop()
    _reply({"stopped": True})


if __name__ == "__main__":
    asyncio.run(_serve())
