"""A response crosses the real-socket data plane in one send per hop.

The back end writes head and body in one vectored write; the proxy finds
both in its first read and relays them, with its own response head, in
one more.
"""

import asyncio

import pytest

from repro.core import Subscriber
from repro.proxy import BackendServer, GageProxy, backend, splice
from repro.proxy.http import read_response_head
from repro.proxy.splice import splice_stats

SITE = "a.com"
REQUESTS = 20


def _count_sends(monkeypatch, module):
    """Record ``(bytes offered, bytes sent directly)`` per vectored write of ``module``."""
    sends = []
    real = splice.vectored_write

    def counting(writer, pieces):
        pieces = list(pieces)
        sent = real(writer, pieces)
        sends.append((sum(len(piece) for piece in pieces), sent))
        return sent

    monkeypatch.setattr(module, "vectored_write", counting)
    return sends


def _count_splice_protocols(monkeypatch):
    installed = []

    class Counting(splice._SpliceProtocol):
        def __init__(self, *args):
            installed.append(args[-1])
            super().__init__(*args)

    monkeypatch.setattr(splice, "_SpliceProtocol", Counting)
    return installed


async def _fetch(reader, writer):
    writer.write(b"GET /index.html HTTP/1.1\r\nHost: a.com\r\n\r\n")
    await writer.drain()
    head = await read_response_head(reader)
    return head, await reader.readexactly(head.content_length)


async def _through_proxy(size, requests):
    server = BackendServer({SITE: {"/index.html": size}}, time_scale=0.0)
    backend_port = await server.start()
    proxy = GageProxy([Subscriber(SITE, 1000)], {"backend0": ("127.0.0.1", backend_port)})
    port = await proxy.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        responses = [await _fetch(reader, writer) for _ in range(requests)]
        writer.close()
    finally:
        await proxy.stop()
        await server.stop()
    return responses


def test_small_keepalive_response_leaves_each_hop_in_one_send(monkeypatch):
    backend_sends = _count_sends(monkeypatch, backend)
    proxy_sends = _count_sends(monkeypatch, splice)
    installed = _count_splice_protocols(monkeypatch)
    splice_stats.reset()

    responses = asyncio.run(_through_proxy(2000, REQUESTS))

    assert all(head.status == 200 and len(body) == 2000 for head, body in responses)
    # The back end: one write per response, head and body, all sent at once.
    assert len(backend_sends) == REQUESTS
    assert all(offered > 2000 and sent == offered for offered, sent in backend_sends)
    # The proxy: per request one write to the back end (the request head)
    # and one to the client (response head and body), each sent at once.
    to_client = [(offered, sent) for offered, sent in proxy_sends if offered > 2000]
    assert len(proxy_sends) == 2 * REQUESTS
    assert len(to_client) == REQUESTS
    assert all(sent == offered for offered, sent in proxy_sends)
    assert installed == []  # the body never needed the second phase
    assert splice_stats.sendmsg_writes == 3 * REQUESTS
    assert splice_stats.buffered_writes == 0


@pytest.mark.parametrize("size", [2000, 256 * 1024])
def test_proxied_bodies_match_the_back_end(size):
    responses = asyncio.run(_through_proxy(size, 3))
    for head, body in responses:
        assert head.status == 200
        assert head.content_length == size
        assert body == b"x" * size
