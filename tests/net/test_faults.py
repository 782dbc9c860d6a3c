"""FaultInjector unit tests: distributions under a fixed seed.

The injector is driven directly (a dummy receiver, one call per copy) so
every knob can be checked in isolation: the Gilbert–Elliott chain's mean
and burstiness, the duplicate rate, the bounded reorder window, the
one-byte corruption, and the injector-level conservation law
``offered == delivered - duplicated + lost`` at quiescence.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.cohort import CohortNic
from repro.metrics.telemetry import Telemetry
from repro.net.faults import FaultInjector, GilbertElliott
from repro.net.segment import Datagram, EthernetSegment
from repro.net.nic import Nic
from repro.net.switch import SwitchedSegment
from repro.sim.core import Simulator


class Receiver:
    """Stands in for a Nic: records (arrival time, datagram)."""

    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def deliver(self, dgram):
        self.got.append((self.sim.now, dgram))

    def ids(self):
        return [int.from_bytes(d.payload[:4], "little") for _, d in self.got]


def make_dgram(i, size=20):
    payload = i.to_bytes(4, "little") + bytes(size - 4)
    return Datagram("10.0.0.1", 1, "239.0.0.1", 2, payload)


def drive(inj, rx, n, spacing=0.01, delay=0.001):
    """Offer ``n`` copies at a fixed pacing, then run to quiescence."""
    sim = inj.sim
    for i in range(n):
        sim.schedule(i * spacing, inj.deliver, rx, make_dgram(i), delay)
    sim.run()


# -- Gilbert–Elliott ----------------------------------------------------------


def test_ge_from_mean_hits_target_loss_rate():
    rng = np.random.default_rng(5)
    chain = GilbertElliott.from_mean(rng, mean_loss=0.1, burst_length=4.0)
    losses = sum(chain.lose() for _ in range(50_000))
    assert losses / 50_000 == pytest.approx(0.1, abs=0.02)


def test_ge_burstiness_clusters_losses():
    def mean_burst(burst_length, seed=9):
        rng = np.random.default_rng(seed)
        chain = GilbertElliott.from_mean(rng, 0.1, burst_length)
        outcomes = [chain.lose() for _ in range(50_000)]
        runs, current = [], 0
        for lost in outcomes:
            if lost:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        return float(np.mean(runs))

    # burst_length=1: the chain exits BAD after every loss, so runs
    # barely exceed one packet; burst_length=8 clusters them hard
    assert mean_burst(1.0) == pytest.approx(1.0, abs=0.1)
    assert mean_burst(8.0) == pytest.approx(8.0, rel=0.25)


def test_ge_rejects_bad_parameters():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        GilbertElliott.from_mean(rng, mean_loss=1.5)
    with pytest.raises(ValueError):
        GilbertElliott.from_mean(rng, mean_loss=0.1, burst_length=0.5)
    with pytest.raises(ValueError):
        GilbertElliott(rng, p_enter_bad=2.0, p_exit_bad=0.5)


def test_zero_loss_chain_never_loses():
    rng = np.random.default_rng(0)
    chain = GilbertElliott.from_mean(rng, 0.0)
    assert not any(chain.lose() for _ in range(1000))


# -- loss through the injector -------------------------------------------------


def test_injected_loss_rate_and_conservation():
    sim = Simulator()
    inj = FaultInjector(sim, loss_rate=0.05, burst_length=5.0, seed=3)
    rx = Receiver(sim)
    drive(inj, rx, 10_000)
    st = inj.stats
    assert st.offered == 10_000
    assert st.lost / st.offered == pytest.approx(0.05, abs=0.01)
    # every copy is delivered or admitted lost; nothing dangles
    assert len(rx.got) == st.offered - st.lost
    assert inj.pending == 0


def test_per_receiver_chains_are_independent():
    """A multicast copy lost at one receiver can arrive at another."""
    sim = Simulator()
    inj = FaultInjector(sim, loss_rate=0.2, burst_length=4.0, seed=2)
    rx_a, rx_b = Receiver(sim), Receiver(sim)
    for i in range(2000):
        sim.schedule(i * 0.01, inj.deliver, rx_a, make_dgram(i), 0.001)
        sim.schedule(i * 0.01, inj.deliver, rx_b, make_dgram(i), 0.001)
    sim.run()
    ids_a, ids_b = set(rx_a.ids()), set(rx_b.ids())
    assert ids_a != ids_b
    assert ids_a | ids_b > ids_a  # b received copies a lost


# -- duplication ---------------------------------------------------------------


def test_duplicates_minted_at_rate_and_delivered_twice():
    sim = Simulator()
    inj = FaultInjector(sim, duplicate_rate=0.2, seed=4)
    rx = Receiver(sim)
    drive(inj, rx, 5000)
    st = inj.stats
    assert st.duplicated / st.offered == pytest.approx(0.2, abs=0.02)
    assert len(rx.got) == st.offered + st.duplicated
    counts = np.bincount(rx.ids())
    assert set(counts) == {1, 2}
    assert int(np.sum(counts == 2)) == st.duplicated
    # the echo lands after the original
    times = {}
    for t, d in rx.got:
        times.setdefault(int.from_bytes(d.payload[:4], "little"), []).append(t)
    for seen in times.values():
        assert seen == sorted(seen)


# -- reordering ----------------------------------------------------------------


def test_reordering_is_bounded_by_the_window():
    sim = Simulator()
    inj = FaultInjector(sim, reorder_rate=0.3, reorder_window=3, seed=5)
    rx = Receiver(sim)
    drive(inj, rx, 2000)
    ids = rx.ids()
    assert sorted(ids) == list(range(2000))  # nothing lost or duplicated
    assert ids != list(range(2000))          # but genuinely reordered
    assert inj.stats.reordered > 0
    # bounded: no copy is overtaken by more than reorder_window later ones
    for pos, i in enumerate(ids):
        overtakers = sum(1 for j in ids[:pos] if j > i)
        assert overtakers <= 3


def test_held_copies_released_by_timeout_at_stream_end():
    """A copy parked for reordering never dangles: if the stream stops,
    the hold timer releases it and the ledger closes."""
    sim = Simulator()
    inj = FaultInjector(sim, reorder_rate=0.999, reorder_window=3,
                        reorder_hold=0.05, seed=6)
    rx = Receiver(sim)
    drive(inj, rx, 5)
    assert sorted(rx.ids()) == list(range(5))
    assert inj.pending == 0


# -- corruption ----------------------------------------------------------------


def test_corruption_flips_exactly_one_byte():
    sim = Simulator()
    inj = FaultInjector(sim, corrupt_rate=0.5, seed=7)
    rx = Receiver(sim)
    # redundant payload: the id five times over, so a single flipped byte
    # can always be located by majority vote
    for i in range(2000):
        dgram = Datagram("10.0.0.1", 1, "239.0.0.1", 2,
                         i.to_bytes(4, "little") * 5)
        sim.schedule(i * 0.01, inj.deliver, rx, dgram, 0.001)
    sim.run()
    st = inj.stats
    assert st.corrupted / st.offered == pytest.approx(0.5, abs=0.05)
    mangled = 0
    for _, d in rx.got:
        groups = [d.payload[k : k + 4] for k in range(0, 20, 4)]
        majority = max(set(groups), key=groups.count)
        assert groups.count(majority) >= 4
        reference = majority * 5
        assert len(d.payload) == len(reference)
        diff = sum(a != b for a, b in zip(d.payload, reference))
        assert diff <= 1  # never more than the one byte
        mangled += diff
    assert mangled == st.corrupted


# -- jitter, determinism, wiring ----------------------------------------------


def test_jitter_spreads_arrivals():
    sim = Simulator()
    inj = FaultInjector(sim, jitter=0.004, seed=8)
    rx = Receiver(sim)
    drive(inj, rx, 500)
    offsets = [t - i * 0.01 - 0.001 for (t, _), i in zip(rx.got, rx.ids())]
    assert max(offsets) > 0.002
    assert inj.stats.jitter_seconds == pytest.approx(sum(offsets), rel=1e-6)


def test_same_seed_same_fate():
    def outcome(seed):
        sim = Simulator()
        inj = FaultInjector(sim, loss_rate=0.1, duplicate_rate=0.1,
                            reorder_rate=0.1, corrupt_rate=0.1,
                            jitter=0.002, seed=seed)
        rx = Receiver(sim)
        drive(inj, rx, 3000)
        return inj.stats, rx.ids()

    assert outcome(11) == outcome(11)
    assert outcome(11) != outcome(12)


def test_faults_counted_in_telemetry():
    tel = Telemetry()
    sim = Simulator()
    inj = FaultInjector(sim, loss_rate=0.1, duplicate_rate=0.1,
                        corrupt_rate=0.1, reorder_rate=0.1, seed=13,
                        name="lan0", telemetry=tel)
    drive(inj, Receiver(sim), 3000)
    st = inj.stats
    assert tel.counters["faults.lost[lan0]"] == st.lost > 0
    assert tel.counters["faults.duplicated[lan0]"] == st.duplicated > 0
    assert tel.counters["faults.reordered[lan0]"] == st.reordered > 0
    assert tel.counters["faults.corrupted[lan0]"] == st.corrupted > 0


def test_injector_attaches_to_segment_and_switch():
    """Both link types route receiver copies through the injector."""
    for make_link in (
        lambda sim: EthernetSegment(sim),
        lambda sim: SwitchedSegment(sim, igmp_snooping=False),
    ):
        sim = Simulator()
        link = make_link(sim)
        sender = Nic(link, "10.0.0.1", name="tx")
        rx = Nic(link, "10.0.0.2", promiscuous=True, name="rx")
        seen = []
        rx.rx_handler = seen.append
        inj = FaultInjector(sim, loss_rate=0.5, seed=1).attach(link)
        for i in range(200):
            sim.schedule(i * 0.01, link.transmit, make_dgram(i), sender)
        sim.run()
        assert inj.stats.offered == 200
        assert 0 < len(seen) < 200
        assert len(seen) == 200 - inj.stats.lost


def test_invalid_rates_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        FaultInjector(sim, loss_rate=1.0)
    with pytest.raises(ValueError):
        FaultInjector(sim, duplicate_rate=-0.1)
    with pytest.raises(ValueError):
        FaultInjector(sim, reorder_window=0)


# -- detach / flush ------------------------------------------------------------


def test_detach_flushes_parked_copies():
    """Tearing the injector down mid-stream must not strand packets:
    everything parked for reordering is released and counted."""
    sim = Simulator()
    inj = FaultInjector(sim, reorder_rate=0.999, reorder_window=8,
                        reorder_hold=60.0, seed=6)
    rx = Receiver(sim)
    for i in range(20):
        sim.schedule(i * 0.01, inj.deliver, rx, make_dgram(i), 0.001)
    sim.run(until=0.5)
    parked = inj.pending
    assert parked > 0
    flushed = inj.detach()
    assert flushed == parked
    assert inj.pending == 0
    assert inj.stats.flushed == flushed
    sim.run()
    assert sorted(rx.ids()) == list(range(20))


def test_flush_after_timeout_release_is_a_noop():
    """The hold timer prunes what it releases, so a later flush finds
    nothing to double-deliver."""
    sim = Simulator()
    inj = FaultInjector(sim, reorder_rate=0.999, reorder_window=3,
                        reorder_hold=0.05, seed=6)
    rx = Receiver(sim)
    drive(inj, rx, 10)  # runs to quiescence: all released by timeout
    assert inj.pending == 0
    assert inj.flush_pending() == 0
    assert sorted(rx.ids()) == list(range(10))


class StubToken:
    """A cohort member token as the injector sees it: a state flag and a
    NIC-shaped ``deliver`` (pre-spill it would buffer; here it records)."""

    def __init__(self, sim):
        self.sim = sim
        self.state = 0  # ALIGNED
        self.got = []

    def deliver(self, dgram):
        self.got.append((self.sim.now, dgram))


class StubCohort:
    """Just enough cohort surface for a cohort seat's fate loop."""

    name = "seat"

    def __init__(self, sim, members):
        self.tokens = [StubToken(sim) for _ in range(members)]
        self.frames = []

    def mark_divergent(self, tok, dgram, reason):
        tok.state = 1  # PENDING

    def finish_frame(self, dgram, delay, represented):
        self.frames.append((dgram, delay, represented))


def cohort_seat(sim, inj, members):
    """A lossless segment whose one receiver is a cohort seat of
    ``members`` stub tokens, with ``inj`` interposed on the link."""
    lan = EthernetSegment(sim, latency=0.001)
    cohort = StubCohort(sim, members)
    CohortNic(lan, "10.0.0.9", 1, cohort).join_group("239.0.0.1")
    inj.attach(lan)
    return lan, cohort


def test_detach_mid_cohort_batch_flushes_holds_exactly_once():
    """Detaching while member copies sit parked for reordering releases
    each held copy to its member token exactly once — no copy stranded,
    none double-delivered, and the loss/reorder counters untouched by
    the flush (a flushed copy is not a second drop)."""
    sim = Simulator()
    inj = FaultInjector(sim, reorder_rate=0.4, reorder_window=8,
                        reorder_hold=60.0, seed=6)
    lan, cohort = cohort_seat(sim, inj, members=5)
    for i in range(12):
        sim.schedule(i * 0.01, lan.transmit, make_dgram(i))
    sim.run(until=0.2)
    st_before = replace(inj.stats)
    parked = inj.pending
    assert parked > 0
    flushed = inj.detach()
    assert flushed == parked
    assert inj.pending == 0
    sim.run()
    st = inj.stats
    # the flush is accounted once, as a flush — not as extra offers,
    # losses, or reorders on top of the ones already drawn
    assert st.flushed == flushed
    assert st.offered == st_before.offered
    assert st.lost == st_before.lost
    assert st.reordered == st_before.reordered
    # every member copy that survived the fate draw reached its token
    # exactly once: offered copies minus losses, per token
    delivered = sum(len(t.got) for t in cohort.tokens)
    shared = sum(r for _, _, r in cohort.frames)
    assert delivered + shared == st.offered + st.duplicated - st.lost
    for tok in cohort.tokens:
        seen = [d.payload for _, d in tok.got]
        assert len(seen) == len(set(seen)), "a flushed copy arrived twice"


def test_hold_timer_after_detach_flush_is_a_noop_for_member_holds():
    """The reorder-hold safety valve fires after the detach flush has
    already released a member's parked copy; it must not deliver (or
    count) that copy a second time."""
    sim = Simulator()
    inj = FaultInjector(sim, reorder_rate=0.999, reorder_window=8,
                        reorder_hold=0.3, seed=6)
    lan, cohort = cohort_seat(sim, inj, members=2)
    for i in range(6):
        sim.schedule(i * 0.01, lan.transmit, make_dgram(i))
    sim.run(until=0.1)
    parked = inj.pending
    assert parked > 0
    assert inj.detach() == parked
    sim.run()  # hold timers all expire now
    assert inj.pending == 0
    assert inj.stats.flushed == parked
    for tok in cohort.tokens:
        seen = [d.payload for _, d in tok.got]
        assert len(seen) == len(set(seen))


def test_detach_stops_interposition_on_the_link():
    sim = Simulator()
    link = EthernetSegment(sim)
    sender = Nic(link, "10.0.0.1", name="tx")
    rx = Nic(link, "10.0.0.2", promiscuous=True, name="rx")
    seen = []
    rx.rx_handler = seen.append
    inj = FaultInjector(sim, loss_rate=0.5, seed=1).attach(link)
    for i in range(100):
        sim.schedule(i * 0.01, link.transmit, make_dgram(i), sender)
    sim.schedule(0.52, inj.detach)
    sim.run()
    # the injector only saw the first half of the stream; afterwards
    # every copy goes straight to the wire untouched
    assert inj.stats.offered < 100
    assert len(seen) == 100 - inj.stats.lost
    assert inj.links == []
