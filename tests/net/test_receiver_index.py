"""The segment's cached receiver sets against a fresh filter on every frame.

``EthernetSegment`` keeps, per ``(dst_ip, vlan)``, the tuple of NICs
whose ``accepts`` matches, and drops it whenever an input of ``accepts``
changes.  A hypothesis state machine attaches, detaches and re-attaches
NICs (a plain one, a ``MacsecNic`` and a cohort seat among them),
rewrites their ``ip``/``vlan``/``promiscuous``, joins and leaves
groups, and transmits unicast, multicast and broadcast frames on a lossy
wire.  After every transmit:

* the receivers, in order, are the oracle
  ``[n for n in nics if n is not sender and n.accepts(d)]`` with the loss
  draws replayed in that order;
* a twin segment that filters every frame afresh delivered to the same
  NICs and left its RNG in the same state.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core.cohort import CohortNic
from repro.net import Datagram, EthernetSegment, Nic
from repro.net.macsec import ConnectivityAssociation, MacsecNic
from repro.net.switch import SwitchedSegment
from repro.sim import Simulator

LOSS = 0.3
IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
GROUPS = ("239.1.1.1", "239.1.1.2")
DESTS = IPS + GROUPS + ("10.0.0.99", "255.255.255.255")
SEAT_MEMBERS = 3


class FreshSegment(EthernetSegment):
    """Filters every frame anew: no receiver cache to go stale."""

    def receivers(self, dgram):
        return tuple(n for n in self._nics if n.accepts(dgram))


class StubCohort:
    """What a cohort seat's fate loop touches: member tokens that never
    spill, and a log of each frame's surviving member count."""

    name = "seat"

    def __init__(self):
        self.tokens = [_Token() for _ in range(SEAT_MEMBERS)]
        self.frames = []

    def mark_divergent(self, tok, dgram, reason=""):
        pass

    def finish_frame(self, dgram, delay, represented):
        self.frames.append(represented)


class _Token:
    state = 0  # aligned


class Wire:
    """One segment, its NICs (attached or not, by slot) and the log of
    which slot heard each frame."""

    def __init__(self, cls):
        self.sim = Simulator()
        self.lan = cls(self.sim, latency=0.0, loss_rate=LOSS, seed=7)
        self.heard = []
        self.cohort = StubCohort()
        ca = ConnectivityAssociation(b"k" * 16)
        self.nics = [
            Nic(self.lan, IPS[0]),
            MacsecNic(self.lan, IPS[1], ca),
            CohortNic(self.lan, IPS[2], 1, self.cohort),
        ]
        for slot, nic in enumerate(self.nics):
            self._log(slot, nic)

    def _log(self, slot, nic):
        deliver = nic.deliver

        def logged(dgram):
            self.heard.append(slot)
            deliver(dgram)

        nic.deliver = logged

    def add(self, ip, vlan, promiscuous):
        nic = Nic(self.lan, ip, vlan=vlan, promiscuous=promiscuous)
        self._log(len(self.nics), nic)
        self.nics.append(nic)


def then_sweep(write):
    """Follow a write with a transmit to every key: the sweep before it
    filled the cache, so a key the write should have dropped shows up
    as a wrong receiver or a shifted loss draw right away."""

    def rule_body(self, **kwargs):
        write(self, **kwargs)
        self.transmit(sender=-1)

    rule_body.__name__ = write.__name__
    return rule_body


class ReceiverIndexMachine(RuleBasedStateMachine):

    @initialize()
    def build(self):
        self.wire = Wire(EthernetSegment)
        self.twin = Wire(FreshSegment)
        self.attached = list(self.wire.nics)  # attach order, per the model

    def _both(self, slot):
        return self.wire.nics[slot], self.twin.nics[slot]

    slots = st.integers(0, 5)

    @rule(ip=st.sampled_from(IPS), vlan=st.sampled_from([1, 2]),
          promiscuous=st.booleans())
    @then_sweep
    def add(self, ip, vlan, promiscuous):
        if len(self.wire.nics) < 6:
            for w in (self.wire, self.twin):
                w.add(ip, vlan, promiscuous)
            self.attached.append(self.wire.nics[-1])

    @rule(slot=slots)
    @then_sweep
    def detach(self, slot):
        if slot < len(self.wire.nics):
            nic, twin = self._both(slot)
            self.wire.lan.detach(nic)
            self.twin.lan.detach(twin)
            if nic in self.attached:
                self.attached.remove(nic)

    @rule(slot=slots)
    @then_sweep
    def reattach(self, slot):
        if slot < len(self.wire.nics):
            nic, twin = self._both(slot)
            if nic not in self.attached:
                self.wire.lan.attach(nic)
                self.twin.lan.attach(twin)
                self.attached.append(nic)

    @rule(slot=slots, group=st.sampled_from(GROUPS), join=st.booleans())
    @then_sweep
    def membership(self, slot, group, join):
        if slot < len(self.wire.nics):
            for nic in self._both(slot):
                (nic.join_group if join else nic.leave_group)(group)

    @rule(slot=slots, ip=st.sampled_from(IPS + ("10.0.0.99",)))
    @then_sweep
    def set_ip(self, slot, ip):
        if slot < len(self.wire.nics):
            for nic in self._both(slot):
                nic.ip = ip

    @rule(slot=slots, vlan=st.sampled_from([1, 2]))
    @then_sweep
    def set_vlan(self, slot, vlan):
        if slot < len(self.wire.nics):
            for nic in self._both(slot):
                nic.vlan = vlan

    @rule(slot=slots, on=st.booleans())
    @then_sweep
    def set_promiscuous(self, slot, on):
        if slot < len(self.wire.nics):
            for nic in self._both(slot):
                nic.promiscuous = on

    @rule(sender=st.integers(-1, 5))
    def transmit(self, sender):
        """One frame to every destination on both VLANs."""
        for dst in DESTS:
            for vlan in (1, 2):
                self._transmit(dst, vlan, sender)

    def _transmit(self, dst, vlan, sender):
        wire, twin = self.wire, self.twin
        d = Datagram("10.0.0.200", 1, dst, 5000, b"x" * 40, vlan=vlan)
        sent_by = None
        if 0 <= sender < len(wire.nics):
            sent_by = wire.nics[sender]
        expected = self._replay(d, sent_by)
        for w in (wire, twin):
            w.heard.clear()
            del w.cohort.frames[:]
            by = None if sent_by is None else w.nics[sender]
            assert w.lan.transmit(d, sender=by)
            w.sim.run(until=w.sim.now + 0.01)  # wire idle again
        assert (wire.heard, wire.cohort.frames) == expected
        assert (twin.heard, twin.cohort.frames) == expected
        assert (wire.lan._rng.bit_generator.state
                == twin.lan._rng.bit_generator.state)

    def _replay(self, d, sender):
        """Who hears ``d``: the oracle receivers in attach order, each
        taking its loss draw(s) from a copy of the segment RNG."""
        rng = np.random.default_rng()
        rng.bit_generator.state = self.wire.lan._rng.bit_generator.state
        heard, seat = [], []
        for nic in self.attached:
            if nic is sender or not nic.accepts(d):
                continue
            if getattr(nic, "cohort", None) is not None:
                seat.append(sum(rng.random() >= LOSS
                                for _ in range(SEAT_MEMBERS)))
            elif rng.random() >= LOSS:
                heard.append(self.wire.nics.index(nic))
        return heard, seat


ReceiverIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestReceiverIndex = ReceiverIndexMachine.TestCase


def test_cache_is_reused_until_a_filter_changes():
    sim = Simulator()
    lan = EthernetSegment(sim)
    a, b = Nic(lan, "10.0.0.1"), Nic(lan, "10.0.0.2")
    a.join_group("239.1.1.1")
    d = Datagram("10.0.0.9", 1, "239.1.1.1", 5000, b"")
    first = lan.receivers(d)
    assert first == (a,)
    assert lan.receivers(d) is first
    b.join_group("239.1.1.1")
    assert lan.receivers(d) == (a, b)
    a.leave_group("239.1.1.1")
    assert lan.receivers(d) == (b,)


def test_switch_forwarding_follows_filter_changes():
    """The switch's forwarding follows the same NIC writes as the
    segment's receiver index."""
    sim = Simulator()
    sw = SwitchedSegment(sim, latency=0.0)
    a, b, c = (Nic(sw, f"10.0.0.{i}") for i in (1, 2, 3))
    heard = []
    for nic in (a, b, c):
        nic.rx_handler = lambda d, nic=nic: heard.append(nic)

    def send(dst, sender=None):
        heard.clear()
        sw.transmit(Datagram("10.0.0.9", 1, dst, 5000, b"x"), sender=sender)
        sim.run()
        return list(heard)

    assert send("239.1.1.1") == []
    b.join_group("239.1.1.1")
    assert send("239.1.1.1") == [b]
    c.promiscuous = True
    assert send("239.1.1.1") == [b, c]
    c.promiscuous = False
    # unknown unicast floods; once a port owns the address it is switched
    assert send("10.0.0.7", sender=a) == [b, c]
    a.ip = "10.0.0.7"
    assert send("10.0.0.7", sender=b) == [a]
    # ... except from the owner itself, which floods to everyone else
    assert send("10.0.0.7", sender=a) == [b, c]
    b.vlan = 2
    assert send("239.1.1.1") == []
    assert sw.stats.frames_switched == 5
    assert sw.stats.frames_flooded == 2
