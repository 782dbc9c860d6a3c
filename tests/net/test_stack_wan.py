"""UDP sockets, demultiplexing, WAN link behaviour."""

import pytest

from repro.net import EthernetSegment, NetworkStack, Nic, WanLink
from repro.sim import Process, Simulator, Sleep, Timeout


def build_host(sim, lan, ip, vlan=1):
    return NetworkStack(sim, Nic(lan, ip, vlan=vlan))


def test_unicast_send_recv():
    sim = Simulator()
    lan = EthernetSegment(sim)
    a = build_host(sim, lan, "10.0.0.1")
    b = build_host(sim, lan, "10.0.0.2")
    rx = b.socket(5000)

    def sender():
        sock = a.socket()
        sock.sendto(b"hello", ("10.0.0.2", 5000))
        yield Sleep(0)

    def receiver():
        msg = yield rx.recv()
        return msg

    Process.spawn(sim, sender())
    p = Process.spawn(sim, receiver())
    sim.run()
    assert p.result.payload == b"hello"
    assert p.result.src[0] == "10.0.0.1"


def test_multicast_requires_join():
    sim = Simulator()
    lan = EthernetSegment(sim)
    a = build_host(sim, lan, "10.0.0.1")
    b = build_host(sim, lan, "10.0.0.2")
    c = build_host(sim, lan, "10.0.0.3")
    rx_b = b.socket(5000)
    rx_b.join_multicast("239.1.1.1")
    rx_c = c.socket(5000)  # bound but never joined

    def sender():
        sock = a.socket()
        sock.sendto(b"stream", ("239.1.1.1", 5000))
        yield Sleep(0)

    Process.spawn(sim, sender())
    sim.run()
    assert rx_b.queued == 1
    assert rx_c.queued == 0


def test_port_demux():
    sim = Simulator()
    lan = EthernetSegment(sim)
    a = build_host(sim, lan, "10.0.0.1")
    b = build_host(sim, lan, "10.0.0.2")
    s1 = b.socket(5000)
    s2 = b.socket(6000)
    tx = a.socket()
    tx.sendto(b"one", ("10.0.0.2", 5000))
    tx.sendto(b"two", ("10.0.0.2", 6000))
    sim.run()
    assert s1.recv_nowait().payload == b"one"
    assert s2.recv_nowait().payload == b"two"


def test_double_bind_rejected():
    sim = Simulator()
    lan = EthernetSegment(sim)
    a = build_host(sim, lan, "10.0.0.1")
    a.socket(5000)
    with pytest.raises(Exception):
        a.socket(5000)


def test_ephemeral_ports_unique():
    sim = Simulator()
    lan = EthernetSegment(sim)
    a = build_host(sim, lan, "10.0.0.1")
    ports = {a.socket().port for _ in range(10)}
    assert len(ports) == 10


def test_bounded_rx_queue_drops_and_counts():
    sim = Simulator()
    lan = EthernetSegment(sim)
    a = build_host(sim, lan, "10.0.0.1")
    b = build_host(sim, lan, "10.0.0.2")
    rx = b.socket(5000, rx_capacity=4)
    tx = a.socket()
    for i in range(10):
        tx.sendto(bytes([i]), ("10.0.0.2", 5000))
    sim.run()
    assert rx.queued == 4
    assert rx.drops == 6


def test_recv_blocks_until_arrival():
    sim = Simulator()
    lan = EthernetSegment(sim, latency=0.0)
    a = build_host(sim, lan, "10.0.0.1")
    b = build_host(sim, lan, "10.0.0.2")
    rx = b.socket(5000)

    def receiver():
        msg = yield rx.recv()
        return sim.now

    def sender():
        yield Sleep(2.0)
        a.socket().sendto(b"x", ("10.0.0.2", 5000))

    p = Process.spawn(sim, receiver())
    Process.spawn(sim, sender())
    sim.run()
    assert p.result == pytest.approx(2.0, abs=1e-3)


def test_recv_with_timeout():
    sim = Simulator()
    lan = EthernetSegment(sim)
    b = build_host(sim, lan, "10.0.0.2")
    rx = b.socket(5000)

    def receiver():
        try:
            yield Timeout(rx.recv(), 1.0)
        except TimeoutError:
            return "gave up"

    p = Process.spawn(sim, receiver())
    sim.run()
    assert p.result == "gave up"


# -- WAN ------------------------------------------------------------------------


def test_wan_delivers_with_latency():
    sim = Simulator()
    wan = WanLink(sim, bandwidth_bps=1e6, latency=0.1, jitter=0.0)
    arrivals = []
    wan.send(bytes(1250), lambda p: arrivals.append(sim.now))
    sim.run()
    # 1250 bytes at 1 Mbps = 10 ms tx + 100 ms latency
    assert arrivals[0] == pytest.approx(0.11)


def test_wan_loss():
    sim = Simulator()
    wan = WanLink(sim, loss_rate=0.5, seed=3, jitter=0.0)
    got = []
    for _ in range(200):
        wan.send(b"x", lambda p: got.append(p))
    sim.run()
    assert 60 <= len(got) <= 140
    assert wan.stats.lost == 200 - len(got)


def test_wan_jitter_varies_arrivals():
    sim = Simulator()
    wan = WanLink(sim, bandwidth_bps=1e9, latency=0.05, jitter=0.05, seed=1)
    arrivals = []
    for _ in range(20):
        wan.send(b"x", lambda p: arrivals.append(sim.now))
    sim.run()
    spread = max(arrivals) - min(arrivals)
    assert spread > 0.01


def test_wan_serialisation_backlog():
    """A burst through a thin pipe drains at line rate, not instantly."""
    sim = Simulator()
    wan = WanLink(sim, bandwidth_bps=1e6, latency=0.0, jitter=0.0)
    arrivals = []
    for _ in range(10):
        wan.send(bytes(12500), lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals[-1] == pytest.approx(1.0)  # 10 x 100 ms each
