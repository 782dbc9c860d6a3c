"""One node interface: every node answers crash()/hang()/restart().

``schedule_fault`` and the supervisor call a node's own verbs, and the
supervisor's heartbeat agent and the ADP advertiser both ask the node's
own ``healthy()``: process alive and not frozen, with a speaker that
booted parked counted as up.  Covered here: every fault target under
both fault kinds, ``supervise()`` on a speaker and on a producer, and
the two places where hand-written probes used to disagree (a parked
speaker that was "restarted", a hung relay that never expired).
"""

import pytest

from repro.audio import AudioEncoding, AudioParams
from repro.core import EthernetSpeakerSystem
from repro.core.cohort import CohortMember
from repro.mgmt.controller import ENT_EXPIRED

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)

FAULT_AT = 1.5
RESTART_AFTER = 1.0

TARGETS = ("speaker-node", "bare-speaker", "cohort-member",
           "rebroadcaster", "standby", "relay")


def build(target: str):
    """A small station with one node of every kind; returns the system
    and the node named ``target``."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("hall", params=LOW, compress="never")
    rb = system.add_rebroadcaster(producer, ch, control_interval=0.5)
    standby = system.add_standby(producer, ch, control_interval=0.5)
    relay = system.add_relay(rb, name="regional", latency=0.02)
    leaf = system.add_leaf_lan(relay, ch)
    system.add_speaker(channel=ch, lan=leaf)
    node = system.add_speaker(channel=ch)
    cohort = system.add_speaker_cohort(ch, 4)
    system.play_synthetic(producer, 6.0, LOW)
    node_of = {
        "speaker-node": node,
        "bare-speaker": node.speaker,
        "cohort-member": cohort.tokens[1],
        "rebroadcaster": rb,
        "standby": standby,
        "relay": relay,
    }
    return system, node_of[target]


def healthy(node) -> bool:
    """A cohort member has no probe of its own: its health is its
    speaker's (the exemplar while it mirrors, its own clone once a fault
    has spilled it)."""
    if isinstance(node, CohortMember):
        node = node.speaker
    return node.healthy()


@pytest.mark.parametrize("kind", ["crash", "hang"])
@pytest.mark.parametrize("target", TARGETS)
def test_schedule_fault_uses_the_node_verbs(target, kind):
    system, node = build(target)
    system.schedule_fault(node, after=FAULT_AT, kind=kind,
                          restart_after=RESTART_AFTER)
    system.run(until=FAULT_AT - 0.5)
    assert healthy(node)
    system.run(until=FAULT_AT + 0.5)
    assert not healthy(node), f"{target} still healthy after {kind}"
    system.run(until=FAULT_AT + RESTART_AFTER + 0.5)
    assert healthy(node), f"{target} not healthy after restart"


def test_schedule_fault_rejects_unknown_kind():
    system, node = build("speaker-node")
    with pytest.raises(ValueError):
        system.schedule_fault(node, after=1.0, kind="reboot")


# -- supervise() --------------------------------------------------------------


@pytest.mark.parametrize("target", ["speaker-node", "rebroadcaster", "relay"])
def test_supervise_restarts_a_crashed_node_exactly_once(target):
    system, node = build(target)
    sup = system.add_supervisor(heartbeat_interval=0.25, miss_threshold=2,
                                restart_delay=0.5)
    health = system.supervise(sup, node)
    assert health.name == node.name
    system.sim.schedule(2.0, node.crash)
    system.run(until=6.0)
    assert sup.stats.restarts == 1
    assert health.restarts == 1
    assert node.healthy()
    assert system.pipeline_report().stats["supervisor"].restarts == 1


def test_supervised_relay_forwards_again():
    """A relay has no host machine: its heartbeat agent runs on the same
    management proxy box as its advertiser (``supervise`` used to raise
    AttributeError on a relay).  A crash gets exactly one restart, and
    the restarted relay forwards to its leaf LAN again."""
    system, relay = build("relay")
    system.advertise_relay(relay, valid_time=1.0)
    sup = system.add_supervisor(heartbeat_interval=0.25, miss_threshold=2,
                                restart_delay=0.5)
    system.supervise(sup, relay)
    assert relay.advertiser.machine is relay.mgmt_box
    system.sim.schedule(2.0, relay.crash)
    system.run(until=2.0)
    assert relay.stats.forwarded > 0
    system.run(until=2.9)
    down = relay.stats.forwarded
    system.run(until=6.0)
    assert sup.stats.restarts == 1
    assert relay.stats.restarts == 1
    assert relay.healthy()
    assert relay.stats.forwarded > down


def test_untuned_speaker_boots_parked_by_default():
    """``add_speaker(channel=None)`` boots parked with the default
    ``start=True`` too: no untuned receive loop runs until a CONNECT
    first-starts it."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("hall", params=LOW, compress="never")
    system.add_rebroadcaster(producer, ch, control_interval=0.5)
    node = system.add_speaker(channel=None, name="parked")
    system.advertise_speaker(node, valid_time=1.0)
    controller = system.add_controller(check_interval=0.1)
    system.play_synthetic(producer, 6.0, LOW)
    system.run(until=1.0)
    assert not node.speaker.started
    system.connect_speaker(controller, node, ch)
    system.run(until=4.0)
    assert node.speaker.started
    assert node.stats.played > 0


# -- the probes no longer disagree --------------------------------------------


def test_supervised_parked_speaker_is_not_restarted():
    """A speaker that booted parked is up and waiting for its first
    CONNECT; the supervisor used to read it as dead and start it."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("hall", params=LOW, compress="never")
    system.add_rebroadcaster(producer, ch, control_interval=0.5)
    node = system.add_speaker(channel=None, start=False, name="parked")
    system.advertise_speaker(node, valid_time=1.0)
    sup = system.add_supervisor(heartbeat_interval=0.25, miss_threshold=2,
                                restart_delay=0.5)
    system.supervise(sup, node)
    controller = system.add_controller(check_interval=0.1)
    system.play_synthetic(producer, 10.0, LOW)
    system.run(until=5.0)
    assert sup.stats.restarts == 0
    assert sup.stats.missed_heartbeats == 0
    assert not node.speaker.started
    assert node.stats.played == 0

    system.connect_speaker(controller, node, ch)
    system.run(until=9.0)
    assert node.speaker.started
    assert node.channel is ch
    assert node.stats.played > 0
    assert sup.stats.restarts == 0


def test_hung_relay_expires_like_a_hung_speaker():
    """The relay's advertiser asks ``healthy()``, which a hang fails: the
    lease lapses at the controller, exactly as for a hung speaker."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("hall", params=LOW, compress="never")
    rb = system.add_rebroadcaster(producer, ch, control_interval=0.5)
    relay = system.add_relay(rb, name="regional", latency=0.02)
    node = system.add_speaker(channel=ch, name="lobby")
    system.advertise_relay(relay, valid_time=1.0)
    system.advertise_speaker(node, valid_time=1.0)
    controller = system.add_controller(check_interval=0.1)
    system.play_synthetic(producer, 8.0, LOW)
    system.schedule_fault(relay, after=2.0, kind="hang")
    system.schedule_fault(node, after=2.0, kind="hang")
    system.run(until=1.9)
    assert controller.find("regional").state != ENT_EXPIRED
    system.run(until=6.0)
    assert controller.find("lobby").state == ENT_EXPIRED
    assert controller.find("regional").state == ENT_EXPIRED
    assert controller.stats.expiries == 2
