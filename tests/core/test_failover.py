"""Warm-standby failover: takeover, stand-down, rejoin, determinism.

The scenarios drive the full system: a primary producer, a standby
mirroring the same source feed, N speakers.  The standby's watchdog
listens to the primary's control cadence on the channel's own multicast
group; killing the primary must hand the channel over within the
takeover timeout, with every speaker re-anchoring on the bumped epoch
exactly once and the audible gap bounded by
``takeover_timeout + check_interval + playout_delay``.
"""

import pytest

from repro.audio import AudioEncoding, AudioParams
from repro.core import EthernetSpeakerSystem

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)

CONTROL_IVL = 0.5
TAKEOVER = 1.0
CHECK = 0.2


def build(n_speakers=2, telemetry=False, duration=12.0, seed=0,
          **fault_kwargs):
    system = EthernetSpeakerSystem(telemetry=telemetry, seed=seed)
    producer = system.add_producer()
    channel = system.add_channel("hall", params=LOW, compress="never")
    rb = system.add_rebroadcaster(
        producer, channel, control_interval=CONTROL_IVL
    )
    standby = system.add_standby(
        producer, channel, takeover_timeout=TAKEOVER, check_interval=CHECK,
        control_interval=CONTROL_IVL,
    )
    nodes = [system.add_speaker(channel=channel) for _ in range(n_speakers)]
    if fault_kwargs:
        system.inject_faults(**fault_kwargs)
    system.play_synthetic(producer, duration, LOW)
    return system, rb, standby, nodes


def test_takeover_after_primary_crash():
    system, rb, standby, nodes = build()
    system.schedule_fault(rb, after=5.0, kind="crash")
    system.run(until=14.0)
    assert standby.active
    assert standby.stats.takeovers == 1
    assert standby.rb.epoch == 1
    # the silence the watchdog measured before deciding
    assert standby.stats.takeover_latencies[0] >= TAKEOVER
    assert standby.stats.takeover_latencies[0] <= TAKEOVER + CHECK + CONTROL_IVL
    for node in nodes:
        st = node.stats
        assert st.epoch_resyncs == 1
        assert len(st.rejoin_gaps) == 1
        # bounded audible hole: control silence + watchdog granularity
        # + the new incarnation's playout buffering
        bound = TAKEOVER + CHECK + CONTROL_IVL + node.speaker.playout_delay
        assert st.rejoin_gaps[0] <= bound
        # playback genuinely resumed after the handover
        assert st.play_log[-1][1] > 7.0
    report = system.pipeline_report()
    assert report.stats["failover"].takeovers == 1
    assert report.conservation_ok


def test_no_takeover_while_primary_healthy():
    # note the horizon stays inside the stream: once the source feed
    # ends, controls stop with it and the watchdog (correctly) reads
    # the silence as a dead producer
    system, rb, standby, nodes = build(duration=8.0)
    system.run(until=6.0)
    assert not standby.active
    assert standby.stats.takeovers == 0
    assert standby.stats.controls_seen > 0
    # the suspended standby paced the mirrored feed without transmitting
    assert standby.rb.stats.suspended_blocks > 0
    assert standby.rb.stats.data_sent == 0
    for node in nodes:
        assert node.stats.epoch_resyncs == 0
    assert system.pipeline_report().conservation_ok


def test_idle_channel_never_triggers_takeover():
    # no source feed at all: the watchdog must stay disarmed — an idle
    # channel is not a dead one
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    channel = system.add_channel("quiet", params=LOW, compress="never")
    system.add_rebroadcaster(producer, channel, control_interval=CONTROL_IVL)
    standby = system.add_standby(
        producer, channel, takeover_timeout=TAKEOVER, check_interval=CHECK,
    )
    system.run(until=10.0)
    assert not standby.active
    assert standby.stats.takeovers == 0


def test_standby_stands_down_to_newer_epoch():
    system, rb, standby, nodes = build(duration=16.0)
    system.schedule_fault(rb, after=4.0, kind="crash")
    # an operator brings the primary back at t=10 with a fresher epoch
    # than the standby claimed (standby took epoch 1, so use 2)
    system.sim.schedule(10.0, rb.restart, 2)
    system.run(until=15.0)
    assert standby.stats.takeovers == 1
    assert standby.stats.standdowns == 1
    assert not standby.active
    assert standby.rb.suspended
    for node in nodes:
        # once onto the standby, once back onto the restarted primary
        assert node.stats.epoch_resyncs == 2
    assert system.pipeline_report().conservation_ok


def test_hung_primary_triggers_takeover():
    system, rb, standby, nodes = build()
    system.schedule_fault(rb, after=5.0, kind="hang")
    system.run(until=14.0)
    assert standby.stats.takeovers == 1
    for node in nodes:
        assert node.stats.epoch_resyncs == 1
        assert node.stats.play_log[-1][1] > 7.0


def test_failover_is_deterministic_per_seed():
    def run_once():
        system, rb, standby, nodes = build(telemetry=False, seed=7)
        system.schedule_fault(rb, after=5.0, kind="crash", seed=3,
                              restart_after=None, jitter=0.5)
        system.run(until=14.0)
        return [tuple(n.stats.play_log) for n in nodes], [
            tuple(n.stats.rejoin_gaps) for n in nodes
        ]

    a = run_once()
    b = run_once()
    # bit-identical playout, including everything after the takeover
    assert a == b


def test_speaker_rejoin_from_cold():
    system, rb, standby, nodes = build(n_speakers=2)
    victim = nodes[0]
    system.schedule_fault(victim, after=4.0, kind="crash",
                          restart_after=1.0)
    system.run(until=14.0)
    st = victim.stats
    # the restarted speaker re-entered wait-for-control -> buffer -> play
    assert len(st.rejoin_gaps) == 1
    assert st.rejoin_gaps[0] < 1.0 + CONTROL_IVL + \
        victim.speaker.playout_delay + 0.2
    assert st.play_log[-1][1] > 6.0
    # the untouched speaker never hiccupped
    assert nodes[1].stats.rejoin_gaps == []
    # conservation closes: the downtime deliveries are classified drops
    # on the wreck socket, not vanished packets
    report = system.pipeline_report()
    assert report.conservation_ok
    assert report.channels[0].socket_drops > 0
