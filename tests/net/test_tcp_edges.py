"""Edge-case tests for the TCP state machine."""

import pytest

from repro.net import TCPState
from repro.net.packet import SEQ_SPACE
from repro.net.tcp import ConnectionError_

from .conftest import TwoHostNet


def test_simultaneous_close(env, net):
    """Both ends send FIN before seeing the other's; both reach CLOSED."""
    conns = {}

    def serve(conn):
        conns["server"] = conn

        def server(env):
            yield conn.receive()  # the request
            conn.close()  # close immediately, concurrent with the client

        env.process(server(env))

    net.b.stack.listen(80, serve)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        conns["client"] = conn
        yield conn.established
        yield conn.send(100, payload="req")
        conn.close()

    env.run(until=env.process(client(env)))
    env.run()
    assert conns["client"].state is TCPState.CLOSED
    assert conns["server"].state is TCPState.CLOSED


def test_sequence_number_wraparound():
    """Data transfer across the 2**32 sequence boundary."""
    from repro.sim import Environment

    env = Environment()
    wrap_isn = SEQ_SPACE - 1000  # wraps within the first few segments

    def isn():
        return wrap_isn

    net = TwoHostNet(env, isn_rng=isn)
    received = []

    def serve(conn):
        def server(env):
            total = 0
            while total < 8000:
                _p, length = yield conn.receive()
                total += length
            received.append(total)
        env.process(server(env))

    net.b.stack.listen(80, serve)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        yield conn.send(8000, payload="wrapping")
        assert conn.snd_nxt < wrap_isn  # the sender's space wrapped

    env.run(until=env.process(client(env)))
    env.run()
    assert received == [8000]


def test_syn_lost_then_retransmitted(env):
    """A lost SYN is retried; the connection still establishes."""
    import random

    from .conftest import TwoHostNet as Net

    env2 = env
    net = Net(env2, rto_s=0.05)
    # Drop the first few frames deterministically.
    net.a.nic.iface.loss_rate = 0.999
    net.a.nic.iface._loss_rng = random.Random(0)

    def heal(env):
        yield env.timeout(0.06)  # after the first SYN is lost
        net.a.nic.iface.loss_rate = 0.0

    env2.process(heal(env2))
    established = []

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        established.append(env.now)

    net.b.stack.listen(80, lambda conn: None)
    env2.run(until=env2.process(client(env2)))
    assert established and established[0] > 0.05  # needed a retransmit


def test_abort_half_open_connection(env, net):
    net.b.stack.listen(80, lambda conn: None)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        conn.abort()  # give up before the SYN-ACK arrives
        with pytest.raises(ConnectionError_):
            yield conn.established

    env.run(until=env.process(client(env)))
    env.run()


def test_connect_with_explicit_source_port(env, net):
    net.b.stack.listen(80, lambda conn: None)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80, src_port=5555)
        assert conn.quad.src_port == 5555
        yield conn.established
        # A second connect on the same quadruple is rejected.
        with pytest.raises(RuntimeError):
            net.a.stack.connect(net.b.ip, 80, src_port=5555)

    env.run(until=env.process(client(env)))


def test_packet_for_foreign_ip_ignored(env, net):
    from repro.net import IPAddress, Packet, TCPFlags

    stray = Packet(
        src_mac=net.a.mac, dst_mac=net.b.mac,
        src_ip=net.a.ip, dst_ip=IPAddress("10.9.9.9"),
        src_port=1, dst_port=2, flags=TCPFlags.SYN,
    )
    net.b.stack.receive(stray)
    assert net.b.stack.rx_no_connection == 0  # not even counted: not ours


def test_time_wait_delays_removal():
    from repro.sim import Environment

    env = Environment()
    net = TwoHostNet(env, time_wait_s=0.5)

    def serve(conn):
        def server(env):
            chunk, _l = yield conn.receive()
            yield conn.close()
        env.process(server(env))

    net.b.stack.listen(80, serve)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        conn.close()
        return conn

    conn = env.run(until=env.process(client(env)))
    env.run(until=0.3)
    # The closing side sits in TIME_WAIT, still registered.
    assert conn.state is TCPState.TIME_WAIT
    assert conn.quad in net.a.stack.connections
    env.run(until=1.0)
    assert conn.state is TCPState.CLOSED
    assert conn.quad not in net.a.stack.connections


def test_send_zero_length_rejected(env, net):
    def serve(conn):
        pass

    net.b.stack.listen(80, serve)

    def client(env):
        conn = net.a.stack.connect(net.b.ip, 80)
        yield conn.established
        with pytest.raises(ValueError):
            conn.send(0)

    env.run(until=env.process(client(env)))
