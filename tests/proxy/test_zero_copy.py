"""Tests for the vectored write path.

Unit tests drive :func:`vectored_write` over real localhost sockets
(asserting via :data:`splice_stats` which path actually ran), and an
integration test proves the back-end server emits byte-identical
responses whether an object is cold or warm in its cache.
"""

import asyncio

from repro.proxy.backend import BackendServer
from repro.proxy.http import USAGE_HEADER
from repro.proxy.splice import _tail_after, splice_stats, vectored_write


class SinkWriter:
    """A StreamWriter stand-in (no transport) collecting written bytes."""

    def __init__(self):
        self.data = bytearray()

    def write(self, chunk):
        self.data.extend(chunk)

    def writelines(self, chunks):
        for chunk in chunks:
            self.data.extend(chunk)

    async def drain(self):
        pass


async def _socket_pair():
    """Client-side (reader, writer) plus the server-side peer and server."""
    accepted = asyncio.get_event_loop().create_future()

    def on_connect(reader, writer):
        if not accepted.done():
            accepted.set_result((reader, writer))

    server = await asyncio.start_server(on_connect, host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    peer = await accepted
    return reader, writer, peer, server


async def _cleanup(*pairs):
    for _reader, writer, (peer_reader, peer_writer), server in pairs:
        writer.close()
        peer_writer.close()
        server.close()
        await server.wait_closed()


async def _read_all(reader):
    data = bytearray()
    while True:
        chunk = await reader.read(65536)
        if not chunk:
            return bytes(data)
        data.extend(chunk)


def test_tail_after_slices_across_pieces():
    pieces = [b"abc", b"defg", b"hi"]
    assert [bytes(p) for p in _tail_after(pieces, 0)] == [b"abc", b"defg", b"hi"]
    assert [bytes(p) for p in _tail_after(pieces, 3)] == [b"defg", b"hi"]
    assert [bytes(p) for p in _tail_after(pieces, 5)] == [b"fg", b"hi"]
    assert _tail_after(pieces, 9) == []


def test_vectored_write_direct_over_empty_transport_buffer():
    pieces = [b"HEAD\r\n\r\n", b"x" * 1024, memoryview(b"y" * 512)]
    total = sum(len(p) for p in pieces)

    async def main():
        pair = await _socket_pair()
        try:
            splice_stats.reset()
            sent = vectored_write(pair[1], pieces)
            await pair[1].drain()
            pair[1].write_eof()
            received = await _read_all(pair[2][0])
            return sent, received
        finally:
            await _cleanup(pair)

    sent, received = asyncio.run(main())
    # Small payload into a fresh socket: the whole list goes out in one
    # vectored syscall.
    assert sent == total
    assert received == b"".join(bytes(p) for p in pieces)
    assert splice_stats.sendmsg_writes == 1
    assert splice_stats.sendmsg_bytes == total


def test_vectored_write_preserves_order_when_buffer_nonempty():
    # With bytes already queued in the transport, a direct socket write
    # would overtake them; vectored_write must detect this and buffer.
    queued = b"q" * (4 * 1024 * 1024)
    pieces = [b"HEAD", b"BODY"]

    async def main():
        pair = await _socket_pair()
        try:
            collector = asyncio.ensure_future(_read_all(pair[2][0]))
            pair[1].write(queued)  # no drain: transport buffer fills
            splice_stats.reset()
            sent = vectored_write(pair[1], pieces)
            direct = splice_stats.sendmsg_writes
            await pair[1].drain()
            pair[1].write_eof()
            received = await collector
            return sent, direct, received
        finally:
            await _cleanup(pair)

    sent, direct, received = asyncio.run(main())
    assert sent == 0
    assert direct == 0
    assert received == queued + b"HEADBODY"


def test_vectored_write_test_double_falls_back_to_writelines():
    sink = SinkWriter()
    splice_stats.reset()
    assert vectored_write(sink, [b"a", b"", b"bc"]) == 0
    assert bytes(sink.data) == b"abc"
    assert splice_stats.sendmsg_writes == 0
    assert splice_stats.buffered_writes == 1


def test_vectored_write_empty_pieces_is_a_noop():
    sink = SinkWriter()
    splice_stats.reset()
    assert vectored_write(sink, [b"", b""]) == 0
    assert bytes(sink.data) == b""
    assert splice_stats.buffered_writes == 0


# -- backend integration: cold and warm byte parity ----------------------


async def _read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    body = await reader.readexactly(length)
    return head + body


def _without_usage(response):
    return [
        line
        for line in response.split(b"\r\n")
        if not line.startswith(USAGE_HEADER.encode())
    ]


def test_backend_cold_and_warm_responses_are_identical():
    """The first (cold) fetch pays disk time, the rest hit the warm cache;
    every one leaves through the same vectored write with the same bytes."""

    async def main():
        backend = BackendServer(
            {"site.example": {"/index.html": 40_000}}, time_scale=0.0
        )
        port = await backend.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                responses = []
                for _ in range(3):
                    writer.write(
                        b"GET /index.html HTTP/1.1\r\n"
                        b"host: site.example\r\n"
                        b"connection: keep-alive\r\n\r\n"
                    )
                    await writer.drain()
                    responses.append(await _read_response(reader))
            finally:
                writer.close()
        finally:
            await backend.stop()
        return responses

    cold, *warm = asyncio.run(main())
    head, body = cold.split(b"\r\n\r\n", 1)
    assert body == b"x" * 40_000
    # Only the usage header's disk charge tells a cold response apart.
    assert [_without_usage(response) for response in warm] == [_without_usage(cold)] * 2
    assert warm[0] == warm[1]
