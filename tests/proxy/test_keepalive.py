"""Keep-alive behavior: client persistence and back-end connection pooling."""

import asyncio

from repro.core import ProxyConfig, Subscriber
from repro.proxy import BackendServer, GageProxy, client_session, frontend
from repro.proxy.http import read_response_head


async def _request(reader, writer, site, path="/index.html", version="HTTP/1.1"):
    """One request/response exchange on an already-open client connection."""
    writer.write(
        "GET {} {}\r\nHost: {}\r\n\r\n".format(path, version, site).encode("latin-1")
    )
    await writer.drain()
    head = await read_response_head(reader)
    body = b""
    while len(body) < head.content_length:
        chunk = await reader.read(65536)
        if not chunk:
            break
        body += chunk
    return head, body


async def _rig(proxy_config=None, body_bytes=500):
    backend = BackendServer({"a.com": {"/index.html": body_bytes}}, time_scale=0.0)
    backend_port = await backend.start()
    proxy = GageProxy(
        [Subscriber("a.com", 1000)],
        {"backend0": ("127.0.0.1", backend_port)},
        proxy_config=proxy_config,
    )
    port = await proxy.start()
    return backend, proxy, port


def test_client_connection_carries_many_requests():
    async def main():
        backend, proxy, port = await _rig()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        heads = []
        for _ in range(5):
            head, body = await _request(reader, writer, "a.com")
            heads.append(head)
            assert len(body) == 500
        writer.close()
        stats = proxy.stats
        await proxy.stop()
        await backend.stop()
        return heads, stats

    heads, stats = asyncio.run(main())
    assert all(head.status == 200 for head in heads)
    assert all(head.headers.get("connection") == "keep-alive" for head in heads)
    assert stats.accepted == 1  # one TCP connection for all five requests
    assert stats.keepalive_requests == 4
    assert stats.completed == 5


def test_unhedged_keepalive_spawns_two_proxy_tasks_per_request():
    """Hedging off, 50 requests on one client connection: each costs one
    ``_serve`` task and one keep-alive wait, plus one for the accept.
    Only tasks running the proxy's own code are counted (``wait_for``
    wraps its awaitable in a task on some Python versions, not others)."""
    proxy_files = {frontend.__file__, client_session.__file__}

    async def main():
        backend, proxy, port = await _rig()
        spawned = []

        def factory(loop, coro, **kwargs):
            code = getattr(coro, "cr_code", None)
            if code is not None and code.co_filename in proxy_files:
                spawned.append(code.co_name)
            return asyncio.Task(coro, loop=loop, **kwargs)

        asyncio.get_running_loop().set_task_factory(factory)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for _ in range(50):
            head, _body = await _request(reader, writer, "a.com")
            assert head.status == 200
        asyncio.get_running_loop().set_task_factory(None)
        writer.close()
        stats = proxy.stats
        await proxy.stop()
        await backend.stop()
        return spawned, stats

    spawned, stats = asyncio.run(main())
    assert stats.completed == 50
    assert sorted(set(spawned)) == ["_handle", "_keepalive_loop", "_serve"]
    assert len(spawned) == 101


def test_http10_client_connection_is_closed_after_response():
    async def main():
        backend, proxy, port = await _rig()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        head, _body = await _request(reader, writer, "a.com", version="HTTP/1.0")
        # The proxy honors the client's HTTP/1.0 default and closes.
        trailing = await reader.read(1024)
        writer.close()
        stats = proxy.stats
        await proxy.stop()
        await backend.stop()
        return head, trailing, stats

    head, trailing, stats = asyncio.run(main())
    assert head.status == 200
    assert head.headers.get("connection") == "close"
    assert trailing == b""  # EOF: no keep-alive loop was started
    assert stats.keepalive_requests == 0


def test_backend_sockets_reused_across_client_connections():
    async def main():
        backend, proxy, port = await _rig()
        for _ in range(5):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            head, _ = await _request(reader, writer, "a.com", version="HTTP/1.0")
            assert head.status == 200
            writer.close()
        pool = proxy.pool
        counts = (pool.hits, pool.misses, pool.idle_count("backend0"))
        await proxy.stop()
        await backend.stop()
        return counts

    hits, misses, idle = asyncio.run(main())
    # First dispatch dials; the other four ride the pooled socket.
    assert misses == 1
    assert hits == 4
    assert idle == 1  # the warm socket is parked again after the last request


def test_ejection_drains_the_pool():
    async def main():
        config = ProxyConfig(probe_interval_s=30.0)
        backend, proxy, port = await _rig(proxy_config=config)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await _request(reader, writer, "a.com", version="HTTP/1.0")
        writer.close()
        assert proxy.pool.idle_count("backend0") == 1
        for _ in range(config.failure_threshold):
            proxy._note_backend_failure("backend0")
        idle = proxy.pool.idle_count("backend0")
        dropped = proxy.pool.dropped
        up = [status.rpn_id for status in proxy.node_scheduler.up_nodes()]
        await proxy.stop()
        await backend.stop()
        return idle, dropped, up

    idle, dropped, up = asyncio.run(main())
    assert idle == 0
    assert dropped == 1
    assert "backend0" not in up


def test_probe_readmission_seeds_the_pool():
    async def main():
        config = ProxyConfig(probe_interval_s=0.05)
        backend, proxy, port = await _rig(proxy_config=config)
        for _ in range(config.failure_threshold):
            proxy._note_backend_failure("backend0")
        assert proxy.pool.idle_count("backend0") == 0
        for _ in range(40):
            await asyncio.sleep(0.05)
            if proxy.node_scheduler.get("backend0").up:
                break
        up = proxy.node_scheduler.get("backend0").up
        idle = proxy.pool.idle_count("backend0")
        await proxy.stop()
        await backend.stop()
        return up, idle

    up, idle = asyncio.run(main())
    assert up
    assert idle == 1  # the successful probe connection was parked


def test_stale_pooled_connection_is_retried_on_a_fresh_dial():
    async def main():
        backend, proxy, port = await _rig()

        # A decoy server that accepts, then slams the door on first byte:
        # the parked connection looks healthy until it is actually used.
        async def slam(reader, writer):
            await reader.read(1024)
            writer.close()

        decoy = await asyncio.start_server(slam, "127.0.0.1", 0)
        decoy_port = decoy.sockets[0].getsockname()[1]
        stale_reader, stale_writer = await asyncio.open_connection(
            "127.0.0.1", decoy_port
        )
        assert proxy.pool.put("backend0", stale_reader, stale_writer)

        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        head, body = await _request(reader, writer, "a.com", version="HTTP/1.0")
        writer.close()
        stats = proxy.stats
        failures = proxy._consecutive_failures.get("backend0", 0)
        decoy.close()
        await decoy.wait_closed()
        await proxy.stop()
        await backend.stop()
        return head, body, stats, failures

    head, body, stats, failures = asyncio.run(main())
    assert head.status == 200
    assert len(body) == 500
    assert stats.completed == 1
    assert stats.failed == 0
    # A stale pooled socket is the pool's fault, not the back end's.
    assert failures == 0
