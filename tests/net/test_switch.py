"""Switched Ethernet with IGMP snooping."""

import pytest

from repro.audio import AudioEncoding, AudioParams, sine, snr_db
from repro.net import Datagram, EthernetSegment, NetworkStack, Nic
from repro.net.switch import SwitchedSegment
from repro.sim import Simulator

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)


def host(sim, switch, ip, vlan=1):
    return NetworkStack(sim, Nic(switch, ip, vlan=vlan))


def test_unicast_forwarded_to_owner_port_only():
    sim = Simulator()
    sw = SwitchedSegment(sim, latency=0.0)
    a = host(sim, sw, "10.0.0.1")
    b = host(sim, sw, "10.0.0.2")
    c = host(sim, sw, "10.0.0.3")
    rx_b = b.socket(5000)
    rx_c = c.socket(5000)
    a.socket().sendto(b"direct", ("10.0.0.2", 5000))
    sim.run()
    assert rx_b.recv_nowait().payload == b"direct"
    assert rx_c.recv_nowait() is None
    assert sw.stats.frames_switched == 1
    assert sw.stats.per_port_bytes_out.get(c.nic.name, 0) == 0


def test_igmp_snooping_prunes_multicast():
    """Only joined ports carry the stream — the switch-era version of
    the paper's 'multicast support by default'."""
    sim = Simulator()
    sw = SwitchedSegment(sim, latency=0.0, igmp_snooping=True)
    src = host(sim, sw, "10.0.0.1")
    member = host(sim, sw, "10.0.0.2")
    outsider = host(sim, sw, "10.0.0.3")
    rx = member.socket(5000)
    rx.join_multicast("239.1.1.1")
    outsider.socket(5000)
    for _ in range(10):
        src.socket().sendto(bytes(500), ("239.1.1.1", 5000))
    sim.run()
    assert rx.queued == 10
    assert sw.stats.per_port_bytes_out.get(member.nic.name, 0) > 0
    assert sw.stats.per_port_bytes_out.get(outsider.nic.name, 0) == 0


def test_without_snooping_multicast_floods():
    sim = Simulator()
    sw = SwitchedSegment(sim, latency=0.0, igmp_snooping=False)
    src = host(sim, sw, "10.0.0.1")
    member = host(sim, sw, "10.0.0.2")
    outsider = host(sim, sw, "10.0.0.3")
    member.socket(5000).join_multicast("239.1.1.1")
    src.socket().sendto(bytes(500), ("239.1.1.1", 5000))
    sim.run()
    # the outsider's drop cable carried the frame (its NIC then filtered)
    assert sw.stats.per_port_bytes_out.get(outsider.nic.name, 0) > 0
    assert sw.flooded_fraction == 1.0


def test_ports_do_not_contend():
    """Two full-rate unicast flows on disjoint port pairs both run at
    line rate — the whole point of switching over a shared segment."""
    sim = Simulator()
    sw = SwitchedSegment(sim, port_bps=10e6, latency=0.0)
    a, b = host(sim, sw, "10.0.0.1"), host(sim, sw, "10.0.0.2")
    c, d = host(sim, sw, "10.0.0.3"), host(sim, sw, "10.0.0.4")
    rx_b, rx_d = b.socket(5000), d.socket(5000)
    payload = bytes(1250)  # ~1 ms per frame at 10 Mbps
    tx_a, tx_c = a.socket(), c.socket()
    for _ in range(50):
        tx_a.sendto(payload, ("10.0.0.2", 5000))
        tx_c.sendto(payload, ("10.0.0.4", 5000))
    sim.run()
    assert rx_b.queued + rx_b.drops == 50
    assert rx_d.queued + rx_d.drops == 50
    # both flows complete in about the time one flow needs alone
    assert sim.now < 0.13  # 50 frames x ~1.06 ms + store-and-forward


def test_vlan_respected_by_switch():
    sim = Simulator()
    sw = SwitchedSegment(sim, latency=0.0)
    a = host(sim, sw, "10.0.0.1", vlan=10)
    b = host(sim, sw, "10.0.0.2", vlan=20)
    rx = b.socket(5000)
    a.socket().sendto(b"x", ("10.0.0.2", 5000))
    sim.run()
    assert rx.recv_nowait() is None


def test_es_system_runs_over_a_switch():
    """Full pipeline over switched infrastructure, snooping on: the
    producer's uplink carries the stream once, non-member ports are
    quiet."""
    from repro.core import ChannelConfig
    from repro.core.rebroadcaster import Rebroadcaster
    from repro.core.speaker import EthernetSpeaker
    from repro.kernel import (
        AudioDevice,
        HardwareAudioDriver,
        Machine,
        SpeakerSink,
        VadPair,
    )
    from repro.audio.encodings import encode_samples
    from repro.kernel.audio import AUDIO_SETINFO

    sim = Simulator()
    sw = SwitchedSegment(sim, latency=20e-6)
    producer = Machine(sim, "producer", cpu_freq_hz=500e6)
    producer.net = NetworkStack(sim, Nic(sw, "10.1.0.1"))
    VadPair(producer)
    channel = ChannelConfig(
        channel_id=1, name="pa", group_ip="239.192.0.1", port=5001,
        params=LOW, compress="never",
    )
    Rebroadcaster(producer, channel).start()

    sinks = []
    speakers = []
    for i in range(2):
        es = Machine(sim, f"es{i}", cpu_freq_hz=233e6)
        es.net = NetworkStack(sim, Nic(sw, f"10.1.0.{i+2}",
                                       name=f"es{i}-port"))
        sink = SpeakerSink()
        es.register_device(
            "/dev/audio", AudioDevice(es, HardwareAudioDriver(es, sink))
        )
        sp = EthernetSpeaker(es, channel.group_ip, channel.port)
        sp.start()
        sinks.append(sink)
        speakers.append(sp)
    bystander = Machine(sim, "desktop", cpu_freq_hz=1e9)
    bystander.net = NetworkStack(sim, Nic(sw, "10.1.0.99",
                                          name="desktop-port"))

    x = sine(440, 2.0, 8000)

    def app():
        fd = yield from producer.sys_open("/dev/vads")
        yield from producer.sys_ioctl(fd, AUDIO_SETINFO, LOW)
        yield from producer.sys_write(fd, encode_samples(x, LOW))

    producer.spawn(app())
    sim.run(until=6.0)
    for sink, sp in zip(sinks, speakers):
        assert sp.stats.played > 0
        assert snr_db(x, sink.waveform()[: len(x)]) > 40
    # snooping kept the bystander's port silent
    assert sw.stats.per_port_bytes_out.get("desktop-port", 0) == 0


def test_invalid_port_bandwidth():
    with pytest.raises(ValueError):
        SwitchedSegment(Simulator(), port_bps=0)


@pytest.mark.parametrize(
    "make_link",
    [
        lambda sim: EthernetSegment(sim, loss_rate=0.5, seed=1),
        lambda sim: SwitchedSegment(sim, loss_rate=0.5, seed=1,
                                    igmp_snooping=False),
    ],
    ids=["segment", "switch"],
)
def test_wire_loss_is_not_a_send_failure(make_link):
    """``transmit`` returns False only for a frame refused before the
    wire; a copy the wire then loses is a receiver loss, on both link
    types.  The switch used to report every lost copy as a refusal too,
    so a rebroadcaster counted one loss twice."""
    sim = Simulator()
    link = make_link(sim)
    sender = Nic(link, "10.0.0.1", name="tx")
    rx = Nic(link, "10.0.0.2", promiscuous=True, name="rx")
    seen = []
    rx.rx_handler = seen.append
    results = []

    def send(i):
        dgram = Datagram("10.0.0.1", 5000, "239.1.1.1", 5000, bytes([i]) * 100)
        results.append(link.transmit(dgram, sender))

    for i in range(200):
        sim.schedule(i * 0.01, send, i)
    sim.run()
    assert results == [True] * 200
    assert link.stats.frames_dropped == 0
    assert 0 < link.stats.receiver_losses < 200
    assert len(seen) + link.stats.receiver_losses == 200
