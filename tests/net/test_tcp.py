"""End-to-end tests for the simulated TCP stack."""

import pytest

from repro.net import Connection, TCPState
from repro.net.packet import SEQ_SPACE
from repro.net.tcp import ConnectionError_, seq_leq, seq_lt

from .conftest import TwoHostNet


def test_seq_arithmetic_wraps():
    assert seq_lt(2**32 - 10, 5)  # wrapped: just before vs just after zero
    assert not seq_lt(5, 2**32 - 10)
    assert seq_leq(7, 7)
    assert seq_leq(6, 7)
    assert not seq_lt(7, 7)


def test_handshake_establishes_both_ends(env, net):
    accepted = []
    net.b.stack.listen(80, accepted.append)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        assert conn.state is TCPState.ESTABLISHED

    env.run(until=env.process(client(env)))
    env.run()  # let the final handshake ACK reach the server
    assert len(accepted) == 1
    assert accepted[0].state is TCPState.ESTABLISHED
    assert accepted[0].quad.src_ip == net.b.ip


def test_data_transfer_single_segment(env, net):
    received = []

    def serve(conn):
        def server(env):
            chunk = yield conn.receive()
            received.append(chunk)
        env.process(server(env))

    net.b.stack.listen(80, serve)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        yield conn.send(100, payload="GET /index.html")

    env.run(until=env.process(client(env)))
    env.run()
    assert received == [("GET /index.html", 100)]


def test_data_transfer_multi_segment(env, net):
    """A payload larger than the MSS is segmented and reassembled."""
    received = []

    def serve(conn):
        def server(env):
            total = 0
            while total < 5000:
                payload, length = yield conn.receive()
                total += length
                received.append((payload, length))
        env.process(server(env))

    net.b.stack.listen(80, serve)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        yield conn.send(5000, payload="big-response")

    env.run(until=env.process(client(env)))
    env.run()
    assert sum(length for _p, length in received) == 5000
    # payload object rides only on the final segment
    assert [p for p, _l in received if p is not None] == ["big-response"]
    assert len(received) == 4  # ceil(5000 / 1460)


def test_bidirectional_transfer(env, net):
    log = []

    def serve(conn):
        def server(env):
            payload, length = yield conn.receive()
            log.append(("server-got", payload, length))
            yield conn.send(2000, payload="response")
        env.process(server(env))

    net.b.stack.listen(80, serve)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        yield conn.send(300, payload="request")
        got = 0
        while got < 2000:
            payload, length = yield conn.receive()
            got += length
            if payload is not None:
                log.append(("client-got", payload, got))

    env.run(until=env.process(client(env)))
    assert ("server-got", "request", 300) in log
    assert ("client-got", "response", 2000) in log


def test_graceful_close_four_way(env, net):
    server_conns = []

    def serve(conn):
        server_conns.append(conn)

        def server(env):
            chunk, _ = yield conn.receive()
            assert chunk is Connection.EOF
            yield conn.close()
        env.process(server(env))

    net.b.stack.listen(80, serve)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        yield conn.close()
        assert conn.state is TCPState.CLOSED
        return conn

    client_conn = env.run(until=env.process(client(env)))
    env.run()
    assert server_conns[0].state is TCPState.CLOSED
    assert client_conn.quad not in net.a.stack.connections
    assert server_conns[0].quad not in net.b.stack.connections


def test_send_after_close_rejected(env, net):
    net.b.stack.listen(80, lambda conn: None)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        conn.close()  # FIN sent; connection is now in FIN_WAIT_1
        with pytest.raises(ConnectionError_):
            conn.send(10)

    env.run(until=env.process(client(env)))


def test_connect_to_closed_port_resets(env, net):
    def client(env):
        conn = net.a.stack.connect(net.b.ip, 9999)
        with pytest.raises(ConnectionError_):
            yield conn.established

    env.run(until=env.process(client(env)))
    assert net.b.stack.rx_no_connection == 1


def test_abort_sends_rst(env, net):
    failures = []

    def serve(conn):
        def server(env):
            try:
                yield conn.receive()
            except ConnectionError_ as exc:
                failures.append(str(exc))
        env.process(server(env))

    net.b.stack.listen(80, serve)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        conn.abort()
        yield env.timeout(0.01)

    env.run(until=env.process(client(env)))
    env.run()
    assert failures and "reset" in failures[0]


def test_retransmission_recovers_from_loss(env):
    """With 20% loss on the client's uplink, data still arrives."""
    import random

    net = TwoHostNet(env, rto_s=0.05)
    net.a.nic.iface.loss_rate = 0.2
    net.a.nic.iface._loss_rng = random.Random(7)
    received = []

    def serve(conn):
        def server(env):
            total = 0
            while total < 4000:
                _p, length = yield conn.receive()
                total += length
            received.append(total)
        env.process(server(env))

    net.b.stack.listen(80, serve)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        yield conn.send(4000, payload="data")

    env.run(until=env.process(client(env)))
    env.run()
    assert received == [4000]


def test_retransmission_gives_up_eventually(env):
    net = TwoHostNet(env, rto_s=0.01, max_retries=3)
    net.a.nic.iface.loss_rate = 0.999999
    failures = []

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        try:
            yield conn.established
        except ConnectionError_ as exc:
            failures.append(str(exc))

    net.b.stack.listen(80, lambda conn: None)
    env.run(until=env.process(client(env)))
    assert failures and "retransmission" in failures[0]


def test_out_of_order_segments_reassembled(env, net):
    """Deliver segments to the stack out of order; rcv_nxt still advances."""
    received = []

    def serve(conn):
        def server(env):
            total = 0
            while total < 3000:
                _p, length = yield conn.receive()
                total += length
            received.append(total)
        env.process(server(env))

    net.b.stack.listen(80, serve)

    # Establish, then handcraft out-of-order data injection.
    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        # Let the final handshake ACK reach the server before injecting.
        yield env.timeout(0.001)
        base = conn.snd_nxt
        stack = net.a.stack
        from repro.net import TCPFlags

        seg2 = stack._make_packet(
            conn.quad, flags=TCPFlags.NONE, seq=(base + 1500) % SEQ_SPACE,
            ack=conn.rcv_nxt, payload=None, payload_len=1500,
        )
        seg1 = stack._make_packet(
            conn.quad, flags=TCPFlags.NONE, seq=base, ack=conn.rcv_nxt,
            payload=None, payload_len=1500,
        )
        net.b.stack.receive(seg2)  # arrives first: out of order
        net.b.stack.receive(seg1)
        yield env.timeout(0.01)

    env.run(until=env.process(client(env)))
    env.run()
    assert received == [3000]


def test_ephemeral_ports_unique(env, net):
    ports = {net.a.stack.ephemeral_port() for _ in range(100)}
    assert len(ports) == 100


def test_listen_twice_rejected(env, net):
    net.b.stack.listen(80, lambda conn: None)
    with pytest.raises(RuntimeError):
        net.b.stack.listen(80, lambda conn: None)


def test_connection_byte_counters(env, net):
    def serve(conn):
        def server(env):
            yield conn.receive()
            yield conn.send(500, payload="resp")
        env.process(server(env))

    net.b.stack.listen(80, serve)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        yield conn.send(100, payload="req")
        yield conn.receive()
        return conn

    conn = env.run(until=env.process(client(env)))
    env.run()
    assert conn.bytes_sent == 100
    assert conn.bytes_received == 500
