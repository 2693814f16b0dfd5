"""A transport is only ever handed bytes it may keep.

The splice sends from memory it does not own: a ``StreamReader``'s
buffer, resized right after the send, and the splice protocol's read
buffer, refilled by the next read.  Python 3.11's transport copies what
it is given, but 3.12's keeps the objects themselves.  The writer double
here keeps every object too, so a view that reached it would change
under it (or make the resize raise ``BufferError``), whatever Python runs
the test.
"""

import asyncio
import socket

import pytest

from repro.proxy import splice
from repro.proxy.splice import _SpliceProtocol, splice_exactly, vectored_write


class _FakeSocket:
    """Takes at most ``accept`` bytes per ``sendmsg`` and copies them, as the kernel does."""

    family = socket.AF_INET

    def __init__(self, accept):
        self.accept = accept
        self.sent = bytearray()

    def sendmsg(self, pieces):
        data = b"".join(bytes(piece) for piece in pieces)[: self.accept]
        self.sent += data
        return len(data)


class _KeepingTransport:
    """Queues the very objects it is handed, as 3.12's selector transport does."""

    def __init__(self, sock=None, queued=0):
        self.sock = sock
        self.queued = queued
        self.kept = []

    def write(self, data):
        self.kept.append(data)

    def writelines(self, pieces):
        self.kept.extend(pieces)

    def is_closing(self):
        return False

    def get_write_buffer_size(self):
        return self.queued + sum(len(data) for data in self.kept)

    def get_write_buffer_limits(self):
        return (splice.WRITE_LOW_WATER, splice.WRITE_HIGH_WATER)

    def get_extra_info(self, name, default=None):
        return self.sock if name == "socket" else default


class _KeepingWriter:
    def __init__(self, transport):
        self.transport = transport

    def write(self, data):
        self.transport.write(data)

    def writelines(self, pieces):
        self.transport.writelines(pieces)

    async def drain(self):
        pass

    def received(self):
        sent = self.transport.sock.sent if self.transport.sock is not None else b""
        return bytes(sent) + b"".join(bytes(data) for data in self.transport.kept)


def _queued_writer():
    """A destination with bytes already queued: every write is buffered."""
    return _KeepingWriter(_KeepingTransport(queued=1))


def _short_writer(accept):
    """An empty destination whose socket takes only ``accept`` bytes."""
    return _KeepingWriter(_KeepingTransport(sock=_FakeSocket(accept)))


@pytest.mark.parametrize(
    "writer_factory",
    [_queued_writer, lambda: _short_writer(3)],
    ids=["buffered", "short-write-tail"],
)
def test_vectored_write_hands_the_transport_only_copies(writer_factory):
    writer = writer_factory()
    source = bytearray(b"0123456789")
    vectored_write(writer, [b"HEAD", memoryview(source)[:8]])
    source[:] = b"z" * len(source)  # the owner reuses its buffer
    del source[:4]  # ... and resizes it: no view may still pin it
    assert writer.received() == b"HEAD01234567"


@pytest.mark.parametrize(
    "writer_factory",
    [_queued_writer, lambda: _short_writer(6)],
    ids=["buffered", "short-write-tail"],
)
def test_splice_phase_one_resizes_the_reader_buffer_it_sent_from(writer_factory):
    class _SourceTransport:
        def set_protocol(self, protocol):
            raise AssertionError("the whole body was buffered: no second phase")

    class _SourceWriter:
        transport = _SourceTransport()

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(b"BODY-BYTESNEXT")
        dst = writer_factory()
        copied = await splice_exactly(reader, _SourceWriter(), dst, 10, prefix=b"HEAD:")
        reader.feed_data(b"-MORE")  # grows the buffer the splice sent from
        rest = await reader.read(100)
        return copied, dst.received(), rest

    copied, received, rest = asyncio.run(main())
    assert copied == 10
    assert received == b"HEAD:BODY-BYTES"
    assert rest == b"NEXT-MORE"


@pytest.mark.parametrize(
    "writer_factory",
    [_queued_writer, lambda: _short_writer(5)],
    ids=["buffered", "short-write-tail"],
)
def test_splice_protocol_reuses_its_buffer_without_touching_queued_bytes(writer_factory):
    class _Source:
        def pause_reading(self):
            pass

    async def main():
        dst = writer_factory()
        protocol = _SpliceProtocol(_Source(), dst, 20)
        for chunk in (b"first-chunk", b"second-ch"):
            buffer = protocol.get_buffer(-1)
            buffer[: len(chunk)] = chunk
            protocol.buffer_updated(len(chunk))
        return protocol.done.result(), dst.received()

    copied, received = asyncio.run(main())
    assert copied == 20
    assert received == b"first-chunksecond-ch"
