"""Failure injection across the whole system.

The paper's environment claims ("we have not experienced packet loss or
transient network disruptions that allowed the input buffer of the ESs to
empty") are good fortune, not guarantees — these tests make the bad things
happen and check the system degrades the way its design promises:
speakers are stateless radios, so every failure is survivable by waiting
for the next control packet.
"""

import numpy as np
import pytest

from repro.audio import AudioEncoding, AudioParams, sine
from repro.core import EthernetSpeakerSystem
from repro.sim import ProcessKilled

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)


def build(n_speakers=1, **sys_kw):
    system = EthernetSpeakerSystem(**sys_kw)
    producer = system.add_producer()
    channel = system.add_channel("ch", params=LOW, compress="never")
    system.add_rebroadcaster(producer, channel, control_interval=0.5)
    nodes = [system.add_speaker(channel=channel) for _ in range(n_speakers)]
    return system, producer, channel, nodes


def test_producer_restart_mid_stream():
    """Kill the rebroadcaster at t=3, start a fresh one (stream clock
    restarts): speakers re-anchor off the new control packets and play
    the second stream."""
    system, producer, channel, (node,) = build()
    rb1 = system.rebroadcasters[0]
    system.play_synthetic(producer, 5.0, LOW)
    system.sim.schedule(3.0, rb1.crash)

    def restart():
        # a second rebroadcaster on a fresh VAD of the same machine
        from repro.kernel.vad import VadPair

        VadPair(producer.machine, slave_path="/dev/vads2",
                master_path="/dev/vadm2")
        system.add_rebroadcaster(producer, channel,
                                 master_path="/dev/vadm2",
                                 control_interval=0.5)
        system.play_synthetic(producer, 5.0, LOW, slave_path="/dev/vads2")

    system.sim.schedule(6.0, restart)
    system.run(until=15.0)
    st = node.stats
    # played both halves: blocks before the kill and after the restart
    times = [t for _, t in st.play_log]
    assert min(times) < 3.0
    assert max(times) > 7.0
    assert st.control_rx > 2


def test_speaker_crash_and_cold_rejoin():
    system, producer, channel, (node,) = build()
    system.play_synthetic(producer, 12.0, LOW)
    system.sim.schedule(4.0, node.speaker.stop)
    fresh = system.add_speaker(channel=channel, start=False)
    system.sim.schedule(8.0, fresh.speaker.start)
    system.run(until=15.0)
    # the crashed speaker stops counting; the fresh one picks up the
    # running stream without anyone's cooperation (§6)
    assert fresh.stats.played > 0
    assert fresh.stats.first_play_time > 8.0
    assert max(p for p, _ in fresh.stats.play_log) > 10.0


def test_network_partition_and_heal():
    """Detach a speaker's NIC for 3 seconds: it loses packets, then
    resynchronises when the segment heals."""
    system, producer, channel, (node,) = build()
    system.play_synthetic(producer, 15.0, LOW)
    nic = node.machine.net.nic

    system.sim.schedule(4.0, system.lan.detach, nic)
    system.sim.schedule(7.0, system.lan.attach, nic)
    system.run(until=18.0)
    st = node.stats
    assert st.seq_gaps > 20  # the partition cost real packets
    positions = sorted(p for p, _ in st.play_log)
    # played before, and resumed after the heal (positions past t=8)
    assert positions[0] < 4.0
    assert positions[-1] > 9.0
    # underruns made the outage audible, as they should
    assert node.device.underruns >= 1


def test_slow_speaker_cpu_overload_sheds_load():
    """A hopelessly slow speaker (10 MHz!) cannot decode in real time;
    it must shed load (drops) rather than run away with memory."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    channel = system.add_channel("ch", params=LOW, compress="always")
    system.add_rebroadcaster(producer, channel, real_codec=False)
    node = system.add_speaker(channel=channel, cpu_freq_hz=10e6,
                              rx_buffer_packets=16)
    system.play_synthetic(producer, 10.0, LOW)
    system.run(until=15.0)
    lost = (node.stats.late_dropped + node.speaker._sock.drops
            + node.stats.seq_gaps)
    assert lost > 0
    assert node.speaker._sock.queued <= 16  # bounded memory


def test_vad_closed_while_rebroadcaster_blocked():
    """Closing the VAD pair wakes a blocked rebroadcaster cleanly."""
    system, producer, channel, (node,) = build()
    rb = system.rebroadcasters[0]
    proc = rb._proc
    system.sim.schedule(2.0, producer.vad.close)
    system.run(until=5.0)
    assert not proc.alive
    assert proc.exception is None  # clean exit on QueueClosed


def test_garbage_on_the_data_port_is_ignored():
    system, producer, channel, (node,) = build()
    evil = system.add_producer(name="evil", housekeeping=False)

    def spam():
        from repro.sim import Sleep

        sock = evil.machine.net.socket()
        rng = np.random.default_rng(3)
        for _ in range(200):
            junk = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
            sock.sendto(junk, (channel.group_ip, channel.port))
            yield Sleep(0.02)

    evil.machine.spawn(spam())
    x = sine(440, 5.0, 8000)
    system.play_pcm(producer, x, LOW)
    system.run(until=8.0)
    st = node.stats
    assert st.garbage_rx == 200
    assert st.played > 0
    assert node.sink.audio_seconds == pytest.approx(5.0, abs=0.3)


def test_two_channels_do_not_interfere():
    """Concurrent streams on separate groups stay separate."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    from repro.kernel.vad import VadPair

    VadPair(producer.machine, slave_path="/dev/vads2",
            master_path="/dev/vadm2")
    ch_a = system.add_channel("a", params=LOW, compress="never")
    ch_b = system.add_channel("b", params=LOW, compress="never")
    system.add_rebroadcaster(producer, ch_a)
    system.add_rebroadcaster(producer, ch_b, master_path="/dev/vadm2")
    node_a = system.add_speaker(channel=ch_a)
    node_b = system.add_speaker(channel=ch_b)
    tone_a = sine(440, 3.0, 8000)
    tone_b = sine(880, 3.0, 8000)
    system.play_pcm(producer, tone_a, LOW)
    system.play_pcm(producer, tone_b, LOW, slave_path="/dev/vads2")
    system.run(until=8.0)
    for node, freq in ((node_a, 440), (node_b, 880)):
        out = node.sink.waveform()
        crossings = int(np.sum(np.diff(np.signbit(out))))
        seconds = len(out) / 8000
        assert crossings == pytest.approx(2 * freq * seconds, rel=0.05)
