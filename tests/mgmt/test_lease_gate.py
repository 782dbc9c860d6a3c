"""The controller's deadline-gated lease scan against the ungated scan.

``FleetController._scan_leases`` returns at once while no record can
have lapsed or come due for pruning.  A late scan would be a bug (an
expiry detected after its instant, a dead record kept past
``prune_after``), so the gate is checked two ways on generated ADP
schedules — adverts with varying ``valid_time``, stale adverts, departs,
zombies (entities that simply fall silent) and controller restarts:

* whenever the gate skips a scan, the ungated scan body
  (``tests/oracles/leases.py``) run at that instant finds nothing to
  expire or prune;
* a twin controller whose every scan is ungated holds the same registry
  and the same stats after every step.
"""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core.protocol import (
    ADP_AVAILABLE,
    ADP_DEPARTING,
    AdpPacket,
    parse_packet,
)
from repro.kernel.machine import Machine
from repro.mgmt.controller import ENT_EXPIRED, FleetController
from repro.net import EthernetSegment
from repro.sim import Simulator
from tests.oracles.leases import lease_changes, ungated_scan

ENTITIES = 4
CHECK = 0.05
DEFAULT_VALID = 0.15


def _controller(sim, lan, name, prune_after):
    machine = Machine(sim, name)
    machine.attach_network(lan, f"10.9.0.{len(lan._nics) + 1}")
    return FleetController(
        machine, name=name, check_interval=CHECK,
        default_valid_time=DEFAULT_VALID, prune_after=prune_after,
    )


def _gated_pair(prune_after):
    """(gated, ungated) controllers on one simulator, listeners running,
    plus the list of gate skips the gated one was caught making."""
    sim = Simulator()
    lan = EthernetSegment(sim)
    gated = _controller(sim, lan, "gated", prune_after)
    twin = _controller(sim, lan, "ungated", prune_after)
    twin._scan_leases = lambda: ungated_scan(twin)
    skips = []
    scan = gated._scan_leases

    def checked_scan():
        now = sim.now
        if now <= gated._next_change:  # the gate is about to skip
            assert lease_changes(gated, now) == ([], []), (
                f"gate skipped a due scan at t={now!r}"
            )
            skips.append(now)
        scan()

    gated._scan_leases = checked_scan
    gated.start()
    twin.start()
    return sim, gated, twin, skips


def _adp(entity_id, message_type, valid_time=0.0, index=0):
    pkt = AdpPacket(entity_id=entity_id, message_type=message_type,
                    valid_time=valid_time, available_index=index,
                    name=f"ent{entity_id}")
    return parse_packet(pkt.encode())  # what the listener would see


def _receive(controllers, pkt):
    """One inbound PDU, handled the way the listener handles it."""
    for ctl in controllers:
        ctl._handle_adp(pkt, (f"10.0.0.{pkt.entity_id}", 17221))
        ctl._scan_leases()


def _assert_twins(gated, twin):
    assert gated.entities == twin.entities
    assert gated.stats == twin.stats


class LeaseGateMachine(RuleBasedStateMachine):

    @initialize(prune_after=st.sampled_from([None, 0.0, 0.1, 0.2, 0.35]))
    def build(self, prune_after):
        self.sim, self.gated, self.twin, self.skips = _gated_pair(prune_after)
        self.index = [0] * ENTITIES

    @rule(dt=st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.2, 0.3]))
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)
        _assert_twins(self.gated, self.twin)

    @rule(e=st.integers(0, ENTITIES - 1),
          valid=st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3]),
          stale=st.booleans())
    def advert(self, e, valid, stale):
        if not stale:
            self.index[e] += 1
        _receive((self.gated, self.twin),
                 _adp(e + 1, ADP_AVAILABLE, valid, self.index[e]))
        _assert_twins(self.gated, self.twin)

    @rule(e=st.integers(0, ENTITIES - 1))
    def depart(self, e):
        _receive((self.gated, self.twin), _adp(e + 1, ADP_DEPARTING))
        _assert_twins(self.gated, self.twin)

    @rule()
    def restart(self):
        # at any instant, a listener's CPU slice in flight included
        self.gated.restart()
        self.twin.restart()
        _assert_twins(self.gated, self.twin)


LeaseGateMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestLeaseGate = LeaseGateMachine.TestCase


def test_gate_skips_scans_between_deadlines():
    """The gate does skip: a quiet registry is not rescanned on every
    advert and idle tick."""
    sim, gated, twin, skips = _gated_pair(prune_after=None)
    for k in range(20):
        sim.run(until=0.01 * (k + 1))
        _receive((gated, twin), _adp(1, ADP_AVAILABLE, 0.2, k + 1))
    assert len(skips) >= 20
    _assert_twins(gated, twin)


def test_refresh_with_shorter_lease_lowers_the_bound():
    """A refresh can move a deadline earlier (``valid_time`` 0.3 then
    0.1): the write must lower the bound or the lapse is seen late."""
    sim, gated, twin, _ = _gated_pair(prune_after=None)
    _receive((gated, twin), _adp(1, ADP_AVAILABLE, 0.3, 1))
    sim.run(until=0.01)
    _receive((gated, twin), _adp(1, ADP_AVAILABLE, 0.1, 2))
    sim.run(until=0.16)  # the idle tick just past 0.15 is past 0.11
    assert gated.entities[1].state == ENT_EXPIRED
    _assert_twins(gated, twin)


def test_expired_record_is_pruned_on_time():
    """A record that lapses in one scan still gets its prune deadline:
    the full scan that expires it schedules the next change."""
    sim, gated, twin, _ = _gated_pair(prune_after=0.3)
    _receive((gated, twin), _adp(1, ADP_AVAILABLE, 0.1, 1))
    sim.run(until=0.16)
    assert gated.entities[1].state == ENT_EXPIRED
    assert gated._next_change < math.inf
    sim.run(until=0.36)  # 0.3 after last_seen, no advert in between
    assert 1 not in gated.entities
    assert gated.stats.pruned == 1
    _assert_twins(gated, twin)


@pytest.mark.parametrize("seen,prune_after", [(0.1, 0.2), (0.7, 0.3)])
def test_prune_bound_survives_rounding(seen, prune_after):
    """``seen + prune_after`` rounds up for these pairs, so at that very
    instant ``now - seen > prune_after`` already holds; a bound taken
    as the plain sum would skip the scan that must prune."""
    edge = seen + prune_after
    assert edge - seen > prune_after
    sim = Simulator()
    lan = EthernetSegment(sim)
    ctl = _controller(sim, lan, "edge", prune_after)
    sim.run(until=seen)
    ctl._handle_adp(_adp(1, ADP_AVAILABLE, 5.0, 1), ("10.0.0.1", 1))
    ctl._handle_adp(_adp(1, ADP_DEPARTING), ("10.0.0.1", 1))
    sim.run(until=edge)
    ctl._scan_leases()
    assert 1 not in ctl.entities


def test_restart_inside_listener_cpu_slice():
    """Regression: a restart while the listener is inside its cold-boot
    CPU slice.  The old listener's kill lands only when the slice ends,
    so crash() must free the discovery port itself, and the late kill
    must leave the new listener's socket bound: an advert sent after the
    restart still reaches the registry."""
    sim = Simulator()
    lan = EthernetSegment(sim)
    ctl = _controller(sim, lan, "ctl", None)
    entity = Machine(sim, "ent")
    entity.attach_network(lan, "10.9.0.99")
    ctl.start()
    sim.run(until=1e-6)  # inside the listener's first cpu.run
    ctl.restart()
    sim.run(until=0.1)
    assert ctl.alive
    assert ctl.stats.discovers_sent == 1  # the killed listener sent none
    advert = AdpPacket(entity_id=5, message_type=ADP_AVAILABLE,
                       valid_time=1.0, available_index=1, name="ent5")
    entity.control_stack.socket().sendto(advert.encode(),
                                         (ctl.group, ctl.port))
    sim.run(until=0.2)
    assert [r.name for r in ctl.available()] == ["ent5"]
