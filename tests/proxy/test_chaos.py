"""Chaos tests: the proxy under misbehaving and unreachable backends.

Two failure archetypes drive everything here:

- a **refusing** backend — nothing listens on the port, connects fail
  instantly;
- a **hanging** backend — accepts the TCP connection, then never writes
  a byte (the classic wedged-worker failure the response timeout exists
  for).

In every case the client must receive *some* HTTP error (502/503/504)
within a bounded time — never a silent hang.
"""

import asyncio
import socket

from repro.core import ProxyConfig, Subscriber
from repro.core.metrics import BACKEND_EJECTED, BACKEND_READMITTED
from repro.proxy import BackendServer, GageProxy
from repro.proxy.http import read_response_head

SITES = {"a.com": {"/index.html": 500}}


def chaos_config(**overrides):
    defaults = dict(
        connect_timeout_s=0.2,
        response_timeout_s=0.25,
        retry_backoff_s=0.01,
        failure_threshold=2,
        probe_interval_s=0.1,
    )
    defaults.update(overrides)
    return ProxyConfig(**defaults)


def free_port() -> int:
    """A port with nothing listening: connects to it are refused."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


async def start_hanging_server():
    """Accepts connections and never responds."""
    opened = []

    async def handler(reader, writer):
        opened.append(writer)
        try:
            await asyncio.sleep(3600)
        except asyncio.CancelledError:
            pass

    server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    return server, opened, port


async def _get(port, site, path="/index.html", timeout=5.0):
    async def fetch():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            "GET {} HTTP/1.0\r\nHost: {}\r\n\r\n".format(path, site).encode("latin-1")
        )
        await writer.drain()
        head = await read_response_head(reader)
        body = b""
        while len(body) < head.content_length:
            chunk = await reader.read(65536)
            if not chunk:
                break
            body += chunk
        writer.close()
        return head, body

    return await asyncio.wait_for(fetch(), timeout)


def test_hanging_backend_gets_504_within_timeout():
    async def main():
        server, opened, port = await start_hanging_server()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"wedged": ("127.0.0.1", port)},
            proxy_config=chaos_config(failure_threshold=100),
        )
        proxy_port = await proxy.start()
        head, _body = await _get(proxy_port, "a.com", timeout=3.0)
        stats = proxy.stats
        await proxy.stop()
        server.close()
        await server.wait_closed()
        return head, stats

    head, stats = asyncio.run(main())
    assert head.status == 504
    assert stats.timed_out == 1
    assert stats.failed == 1


def test_refusing_backend_502_then_ejection_then_shedding():
    async def main():
        port = free_port()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"gone": ("127.0.0.1", port)},
            proxy_config=chaos_config(failure_threshold=2),
        )
        proxy_port = await proxy.start()
        statuses = []
        retry_afters = []
        for _ in range(4):
            head, _body = await _get(proxy_port, "a.com", timeout=3.0)
            statuses.append(head.status)
            retry_afters.append(head.headers.get("retry-after"))
        ejected = proxy.failures.count(BACKEND_EJECTED)
        shed = proxy.stats.shed_no_backend
        await proxy.stop()
        return statuses, retry_afters, ejected, shed

    statuses, retry_afters, ejected, shed = asyncio.run(main())
    # First failure: 502 while the backend is still considered alive;
    # the second connect failure trips the threshold and every later
    # request is shed with a 503 + Retry-After.
    assert statuses[0] == 502
    assert statuses[1:] == [503, 503, 503]
    assert ejected == 1
    assert shed >= 1
    for status, retry_after in zip(statuses, retry_afters):
        if status == 503:
            assert retry_after is not None and int(retry_after) >= 1


def test_refusals_always_send_connection_close():
    async def main():
        port = free_port()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"gone": ("127.0.0.1", port)},
            proxy_config=chaos_config(),
        )
        proxy_port = await proxy.start()
        heads = []
        for site in ("nosuch.example", "a.com"):
            head, _body = await _get(proxy_port, site, timeout=3.0)
            heads.append(head)
        await proxy.stop()
        return heads

    heads = asyncio.run(main())
    assert heads[0].status == 404
    assert heads[1].status in (502, 503)
    for head in heads:
        assert head.headers.get("connection") == "close"


def test_probe_readmits_revived_backend():
    async def main():
        port = free_port()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"flaky": ("127.0.0.1", port)},
            proxy_config=chaos_config(failure_threshold=1),
        )
        proxy_port = await proxy.start()
        head, _ = await _get(proxy_port, "a.com", timeout=3.0)
        assert head.status in (502, 503)
        assert proxy.failures.count(BACKEND_EJECTED) == 1
        # Revive the backend on the very same port; the probe loop must
        # notice and put it back into rotation.
        backend = BackendServer(SITES, time_scale=0.0)
        await backend.start(port=port)
        deadline = asyncio.get_event_loop().time() + 3.0
        while (
            proxy.failures.count(BACKEND_READMITTED) == 0
            and asyncio.get_event_loop().time() < deadline
        ):
            await asyncio.sleep(0.05)
        readmitted = proxy.failures.count(BACKEND_READMITTED)
        head, body = await _get(proxy_port, "a.com", timeout=3.0)
        await proxy.stop()
        await backend.stop()
        return readmitted, head, body

    readmitted, head, body = asyncio.run(main())
    assert readmitted == 1
    assert head.status == 200
    assert len(body) == 500


def test_connect_failure_retries_on_alternate_backend():
    async def main():
        backend = BackendServer(SITES, time_scale=0.0)
        good_port = await backend.start()
        # "bad" registers first, so on an idle tie the least-load pick
        # dispatches there and the retry path must rescue the request.
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"bad": ("127.0.0.1", free_port()), "good": ("127.0.0.1", good_port)},
            proxy_config=chaos_config(failure_threshold=10),
        )
        proxy_port = await proxy.start()
        head, body = await _get(proxy_port, "a.com", timeout=3.0)
        stats = proxy.stats
        await proxy.stop()
        await backend.stop()
        return head, body, stats

    head, body, stats = asyncio.run(main())
    assert head.status == 200
    assert len(body) == 500
    assert stats.retried == 1
    assert stats.completed == 1


def test_mixed_chaos_every_client_gets_an_answer():
    """Acceptance scenario: one hanging + one refusing backend.  Every
    client receives an HTTP error within its timeout — no hangs."""

    async def main():
        server, _opened, hang_port = await start_hanging_server()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {
                "wedged": ("127.0.0.1", hang_port),
                "gone": ("127.0.0.1", free_port()),
            },
            proxy_config=chaos_config(failure_threshold=2),
        )
        proxy_port = await proxy.start()
        results = await asyncio.gather(
            *[_get(proxy_port, "a.com", timeout=4.0) for _ in range(8)],
            return_exceptions=True,
        )
        failures = proxy.failures
        await proxy.stop()
        server.close()
        await server.wait_closed()
        return results, failures

    results, failures = asyncio.run(main())
    statuses = []
    for result in results:
        assert not isinstance(result, Exception), "a client hung or errored: {!r}".format(result)
        head, _body = result
        statuses.append(head.status)
    assert all(status in (502, 503, 504) for status in statuses)
    # The refusing backend crossed the ejection threshold along the way.
    assert failures.count(BACKEND_EJECTED) >= 1
