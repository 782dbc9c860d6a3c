"""The supervision layer: heartbeats, down detection, driven restarts.

The registry must be *honest*: heartbeat agents run on the supervised
node's own CPU, so every failure mode the fault layer can inject — a
killed process, a frozen process, a halted CPU — silences the beat
through the same starvation a real watchdog daemon would see.
"""

import pytest

from repro.audio import AudioEncoding, AudioParams
from repro.core import EthernetSpeakerSystem
from repro.mgmt.supervisor import DOWN, UP, Supervisor
from repro.sim import Process, Simulator, Sleep

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)


def build(duration=12.0, **sup_kwargs):
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    channel = system.add_channel("ch", params=LOW, compress="never")
    system.add_rebroadcaster(producer, channel, control_interval=0.5)
    node = system.add_speaker(channel=channel)
    sup_kwargs.setdefault("heartbeat_interval", 0.25)
    sup_kwargs.setdefault("miss_threshold", 2)
    sup_kwargs.setdefault("restart_delay", 0.5)
    supervisor = system.add_supervisor(**sup_kwargs)
    system.supervise(supervisor, node)
    system.play_synthetic(producer, duration, LOW)
    return system, node, supervisor


def test_healthy_node_beats_and_stays_up():
    system, node, sup = build()
    system.run(until=5.0)
    health = sup.nodes[node.speaker.name]
    assert health.status == UP
    assert health.beats >= 15
    assert sup.stats.missed_heartbeats == 0
    assert sup.stats.restarts == 0


def test_crashed_speaker_is_detected_and_restarted():
    system, node, sup = build()
    system.sim.schedule(4.0, node.speaker.crash)
    system.run(until=12.0)
    health = sup.nodes[node.speaker.name]
    assert health.restarts == 1
    assert health.status == UP
    assert sup.stats.missed_heartbeats >= 1
    assert node.speaker._proc.alive
    # playback resumed after the driven cold restart
    assert node.stats.play_log[-1][1] > 6.0
    assert len(node.stats.rejoin_gaps) == 1
    # detection + restart happened within a few scan intervals
    assert node.stats.rejoin_gaps[0] < 3.0
    assert system.pipeline_report().stats["supervisor"].restarts == 1


def test_hung_speaker_with_halted_cpu_starves_the_beat():
    # freeze_cpu=True: even the heartbeat agent cannot run, so the
    # registry learns about the hang by *absence*, not by probing
    system, node, sup = build()
    system.sim.schedule(4.0, node.speaker.hang)
    system.run(until=12.0)
    health = sup.nodes[node.speaker.name]
    assert health.restarts == 1
    assert health.status == UP
    assert not node.machine.cpu.halted  # restart unhalted it
    assert node.stats.play_log[-1][1] > 6.0


def test_node_recovering_on_its_own_skips_the_restart():
    system, node, sup = build(restart_delay=2.0)
    # hang without halting the CPU, and recover before the delayed
    # restart fires: the supervisor must notice and leave it alone
    system.sim.schedule(4.0, lambda: node.speaker.hang(freeze_cpu=False))
    system.sim.schedule(5.2, node.speaker.unhang)
    system.run(until=12.0)
    health = sup.nodes[node.speaker.name]
    assert health.restarts == 0
    assert health.status == UP
    # the hang was observed, the recovery honoured
    assert sup.stats.missed_heartbeats >= 1
    assert node.stats.rejoin_gaps == []  # no cold restart, no RAM loss


def test_restart_delay_none_disables_driven_restarts():
    system, node, sup = build(restart_delay=None)
    system.sim.schedule(4.0, node.speaker.crash)
    system.run(until=10.0)
    health = sup.nodes[node.speaker.name]
    assert health.status == DOWN
    assert health.restarts == 0
    assert not node.speaker._proc.alive


def test_supervised_rebroadcaster_restart_bumps_epoch():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    channel = system.add_channel("ch", params=LOW, compress="never")
    rb = system.add_rebroadcaster(producer, channel, control_interval=0.5)
    node = system.add_speaker(channel=channel)
    supervisor = system.add_supervisor(
        heartbeat_interval=0.25, miss_threshold=2, restart_delay=0.5
    )
    system.supervise(supervisor, rb)
    system.play_synthetic(producer, 12.0, LOW)
    system.sim.schedule(4.0, rb.crash)
    system.run(until=12.0)
    assert rb.alive
    assert rb.epoch == 1  # the new incarnation announces itself
    assert node.stats.epoch_resyncs == 1
    assert node.stats.play_log[-1][1] > 6.0
    assert system.pipeline_report().conservation_ok


def test_watch_rejects_duplicate_names():
    sim = Simulator()
    sup = Supervisor(sim)

    class M:
        pass

    from repro.kernel.machine import Machine
    machine = Machine(sim, "m", cpu_freq_hz=1e6)
    sup.watch("n", machine, lambda: True)
    with pytest.raises(ValueError):
        sup.watch("n", machine, lambda: True)


def test_snapshot_carries_status_map():
    system, node, sup = build()
    system.run(until=3.0)
    snap = sup.snapshot()
    assert snap.nodes == {node.speaker.name: UP}
