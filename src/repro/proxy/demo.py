"""Turn-key assembly of the asyncio deployment on localhost.

Starts N back-end servers and the Gage front-end proxy, drives an
open-loop HTTP load against it, and reports per-subscriber outcomes —
used by ``examples/asyncio_proxy_demo.py`` and the proxy test suite.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import GageConfig
from repro.core.subscriber import Subscriber
from repro.proxy.backend import BackendServer
from repro.proxy.frontend import GageProxy
from repro.proxy.http import read_response_head
from repro.workload.request import CostModel


@dataclass
class DemoResult:
    """Outcome of one demo run."""

    issued: Dict[str, int] = field(default_factory=dict)
    completed: Dict[str, int] = field(default_factory=dict)
    refused: Dict[str, int] = field(default_factory=dict)
    errors: Dict[str, int] = field(default_factory=dict)
    latencies_s: Dict[str, List[float]] = field(default_factory=dict)

    def mean_latency_s(self, host: str) -> float:
        """Mean latency of one host's completed requests."""
        values = self.latencies_s.get(host, [])
        return sum(values) / len(values) if values else 0.0


async def _one_request(
    host: str, port: int, site: str, path: str, result: DemoResult
) -> None:
    loop = asyncio.get_event_loop()
    started = loop.time()
    result.issued[site] = result.issued.get(site, 0) + 1
    try:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            "GET {} HTTP/1.0\r\nHost: {}\r\n\r\n".format(path, site).encode("latin-1")
        )
        await writer.drain()
        head = await read_response_head(reader)
        remaining = head.content_length
        while remaining > 0:
            chunk = await reader.read(min(65536, remaining))
            if not chunk:
                raise ConnectionError("short body")
            remaining -= len(chunk)
        writer.close()
        if head.status == 200:
            result.completed[site] = result.completed.get(site, 0) + 1
            result.latencies_s.setdefault(site, []).append(loop.time() - started)
        else:
            result.refused[site] = result.refused.get(site, 0) + 1
    except (OSError, asyncio.IncompleteReadError, ConnectionError):
        result.errors[site] = result.errors.get(site, 0) + 1


async def run_demo(
    reservations: Dict[str, float],
    rates: Dict[str, float],
    duration_s: float = 3.0,
    num_backends: int = 2,
    file_bytes: int = 2000,
    time_scale: float = 1.0,
    config: Optional[GageConfig] = None,
    queue_capacity: int = 256,
) -> DemoResult:
    """Run the full localhost deployment for ``duration_s`` seconds.

    ``reservations`` are GRPS per subscriber; ``rates`` the offered loads
    in requests/second; ``time_scale`` shrinks the modeled back-end
    service times (useful to keep test wall time down).
    """
    sites = {host: {"/index.html": file_bytes} for host in reservations}
    cost_model = CostModel()
    backends = [
        BackendServer(sites, cost_model=cost_model, time_scale=time_scale)
        for _ in range(num_backends)
    ]
    backend_addrs = {}
    for index, backend in enumerate(backends):
        port = await backend.start()
        backend_addrs["backend{}".format(index)] = ("127.0.0.1", port)

    subscribers = [
        Subscriber(host, grps, queue_capacity=queue_capacity)
        for host, grps in reservations.items()
    ]
    proxy = GageProxy(subscribers, backend_addrs, config=config)
    port = await proxy.start()

    result = DemoResult()
    tasks: List[asyncio.Task] = []
    loop = asyncio.get_event_loop()
    started = loop.time()

    async def generate(site: str, rate: float) -> None:
        if rate <= 0:
            return
        period = 1.0 / rate
        while loop.time() - started < duration_s:
            tasks.append(
                asyncio.ensure_future(
                    _one_request("127.0.0.1", port, site, "/index.html", result)
                )
            )
            await asyncio.sleep(period)

    generators = [
        asyncio.ensure_future(generate(site, rate)) for site, rate in rates.items()
    ]
    await asyncio.gather(*generators)
    # Let in-flight requests drain.
    await asyncio.sleep(0.5 + 0.1 / max(time_scale, 0.01))
    for task in tasks:
        if not task.done():
            task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)

    await proxy.stop()
    for backend in backends:
        await backend.stop()
    return result
