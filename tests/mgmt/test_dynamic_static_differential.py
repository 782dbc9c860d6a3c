"""Differential: a discovery-assembled fleet is bit-identical to a
statically wired one.

The acceptance bar for the dynamic control plane is that it is *pure
control*: a fleet whose speakers boot parked, advertise themselves, and
get tuned by ACMP CONNECT transactions before the stream starts must
produce the exact playout — every ``play_log`` entry, every device
``write_offset``, every channel-ledger row — of a fleet whose speakers
were handed the channel at construction.  Both fleets run the *same*
advertisers, agents and controller (identical CPU and management-segment
load); the only difference is who wired the tuner.  Management traffic
rides its own out-of-band segment, so the audio LAN's fault RNG and wire
accounting are untouched — the comparison holds under GE wire faults
too.
"""

import pytest

from repro.audio import AudioEncoding, AudioParams
from repro.core import EthernetSpeakerSystem
from repro.sim.process import Process, Sleep, WaitProcess

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)

MEMBERS = 4
STREAM_SECONDS = 3.0
STREAM_START = 2.5       # every ACMP transaction settles long before this
HORIZON = 8.0

#: PipelineReport fields and kind rows describing the simulated audio
#: path (must match)
PIPELINE_FIELDS = (
    "underruns", "silence_seconds", "injected_pending", "rejoins",
    "max_rejoin_gap",
)
PIPELINE_KINDS = ("speaker", "segment", "lan_faults")


def build(dynamic, scenario, seed):
    system = EthernetSpeakerSystem(seed=seed)
    producer = system.add_producer()
    channel = system.add_channel("hall", params=LOW, compress="never")
    system.add_rebroadcaster(producer, channel, control_interval=0.5)
    nodes = []
    for i in range(MEMBERS):
        if dynamic:
            node = system.add_speaker(channel=None, start=False,
                                      name=f"es{i}")
        else:
            node = system.add_speaker(channel=channel, name=f"es{i}")
        system.advertise_speaker(node)      # both fleets carry the load
        nodes.append(node)
    controller = system.add_controller(check_interval=0.1)
    connects = []
    if dynamic:
        def assemble():
            yield Sleep(0.5)                # registry fills from adverts
            for node in nodes:              # sequential: deterministic
                ok = yield WaitProcess(
                    system.connect_speaker(controller, node, channel)
                )
                connects.append(ok)

        Process.spawn(system.sim, assemble(), name="assembler")
    if scenario == "ge-fault":
        system.inject_faults(
            loss_rate=0.05, burst_length=3.0, duplicate_rate=0.02,
            reorder_rate=0.03, reorder_window=4, seed=seed + 100,
        )
    system.play_synthetic(producer, STREAM_SECONDS, LOW,
                          source_paced=True, start_after=STREAM_START)
    system.run(until=HORIZON)
    return system, controller, nodes, connects


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("scenario", ["clean", "ge-fault"])
def test_dynamic_fleet_matches_static_fleet(scenario, seed):
    sys_dyn, ctl_dyn, nodes_dyn, connects = build(True, scenario, seed)
    sys_sta, ctl_sta, nodes_sta, _ = build(False, scenario, seed)

    # the control plane really did the wiring on the dynamic side
    assert connects == [True] * MEMBERS
    assert ctl_dyn.stats.acmp_connects == MEMBERS
    assert ctl_dyn.stats.acmp_failures == 0
    assert ctl_sta.stats.acmp_connects == 0
    for node in nodes_dyn:
        assert node.channel is not None
        assert node.channel.channel_id == nodes_sta[0].channel.channel_id

    # ...and the audio world cannot tell the difference
    for dyn, sta in zip(nodes_dyn, nodes_sta):
        assert dyn.stats.play_log == sta.stats.play_log, \
            f"{dyn.speaker.name} playout differs"
        assert dyn.stats.write_offsets == sta.stats.write_offsets, \
            f"{dyn.speaker.name} device offsets differ"
        assert dyn.stats.played == sta.stats.played
        assert dyn.stats.rejoin_gaps == sta.stats.rejoin_gaps
        assert dyn.stats.play_log, f"{dyn.speaker.name} never played"

    rep_dyn = sys_dyn.pipeline_report()
    rep_sta = sys_sta.pipeline_report()
    assert len(rep_dyn.channels) == len(rep_sta.channels)
    for ca, cb in zip(rep_dyn.channels, rep_sta.channels):
        assert ca == cb, f"channel ledger differs:\n{ca}\n{cb}"
    for f in PIPELINE_FIELDS:
        assert getattr(rep_dyn, f) == getattr(rep_sta, f), \
            f"pipeline.{f}: {getattr(rep_dyn, f)!r} != " \
            f"{getattr(rep_sta, f)!r}"
    for kind in PIPELINE_KINDS:
        row_a, row_b = rep_dyn.stats.get(kind), rep_sta.stats.get(kind)
        assert row_a == row_b, f"pipeline {kind}: {row_a} != {row_b}"
    assert rep_dyn.conservation_residual == rep_sta.conservation_residual
    assert rep_dyn.conservation_ok and rep_sta.conservation_ok
    # the control plane itself shows up only in the out-of-band counters
    assert rep_dyn.stats["controller"].acmp_connects == MEMBERS
    assert rep_sta.count("controller", "acmp_connects") == 0
    assert rep_dyn.adp_advertises > 0 and rep_sta.adp_advertises > 0


@pytest.mark.parametrize("scenario", ["clean", "ge-fault"])
def test_dynamic_assembly_is_deterministic(scenario):
    """Two same-seed dynamic assemblies fingerprint identically — the
    seeded-timeout retry schedule and discovery cadence are replayable."""

    def fingerprint():
        system, controller, nodes, connects = build(True, scenario, 7)
        s = controller.stats
        return (
            tuple(tuple(n.stats.play_log) for n in nodes),
            tuple(tuple(n.stats.write_offsets) for n in nodes),
            tuple(connects),
            (s.adp_advertises, s.acmp_connects, s.acmp_retries,
             s.enumerations),
        )

    assert fingerprint() == fingerprint()
