"""Batched fan-out delivery: one heap event per frame, same semantics.

On a jitter-free link every matching receiver hears a multicast frame at
the same instant, so the segment/switch can schedule ONE event that fans
out to all of them instead of one event per copy.  These tests pin the
contract against an expected-arrival oracle: every copy lands at its
frame's send time plus its wire time, and the seeded loss draws are one
``rng.random()`` per receiver in NIC order; jitter and fault injectors
fall back transparently; and the batch sizes show up in telemetry.
"""

import numpy as np
import pytest

from repro.core.cohort import CohortNic
from repro.metrics.telemetry import Telemetry
from repro.net import Datagram, EthernetSegment, Nic
from repro.net.addr import wire_bytes
from repro.net.faults import FaultInjector
from repro.net.switch import SwitchedSegment
from repro.sim import Simulator


class StubCohort:
    """A cohort seat's surface: member tokens that stay aligned, and a
    log of each frame's delay and surviving member count."""

    name = "seat"

    def __init__(self, members):
        self.tokens = [_Token() for _ in range(members)]
        self.frames = []

    def mark_divergent(self, tok, dgram, reason=""):
        pass

    def finish_frame(self, dgram, delay, represented):
        self.frames.append((delay, represented))


class _Token:
    state = 0  # aligned


def build_lan(n_receivers, *, switched=False, telemetry=None, seat=None,
              **kw):
    """A link with ``n_receivers`` NICs in the group; a ``seat`` (a
    stub cohort) takes its port after the first half of them."""
    sim = Simulator()
    if telemetry is not None:
        sim.set_telemetry(telemetry)
    if switched:
        link = SwitchedSegment(sim, latency=0.0, telemetry=telemetry, **kw)
    else:
        link = EthernetSegment(sim, latency=0.0, **kw)
    arrivals = []
    for i in range(n_receivers):
        if seat is not None and i == n_receivers // 2:
            CohortNic(link, "10.0.0.200", 1, seat).join_group("239.1.1.1")
        nic = Nic(link, f"10.0.0.{i + 2}")
        nic.join_group("239.1.1.1")
        nic.rx_handler = (
            lambda d, name=nic.ip: arrivals.append((sim.now, name, d.payload))
        )
    return sim, link, arrivals


PAYLOAD = 50
FRAME_GAP = 0.001


def blast(sim, link, frames=20):
    for i in range(frames):
        sim.schedule(
            i * FRAME_GAP, link.transmit,
            Datagram("10.0.0.1", 1, "239.1.1.1", 5000,
                     bytes([i]) * PAYLOAD),
        )
    sim.run()


def expected_arrivals(n_receivers, frames, *, switched=False,
                      loss_rate=0.0, seed=0, seat_members=0, seat_log=None):
    """Per-receiver arrivals, computed without a simulator: a frame sent
    at ``now`` lands ``now`` plus its wire time later (one serialisation
    on the shared segment, ingress then egress through the switch), at
    every receiver whose ``rng.random()`` loss draw, taken in NIC order,
    spares it.  Frames are far enough apart that nothing queues.

    With ``seat_members``, the cohort seat after the first half of the
    receivers takes one draw per member in its place in that order, and
    each frame's ``(delay, surviving members)`` goes to ``seat_log``."""
    rng = np.random.default_rng(seed)
    wire = wire_bytes(PAYLOAD) * 8 / 100e6
    out = []
    for i in range(frames):
        now = i * FRAME_GAP
        done = now + wire + (wire if switched else 0.0)
        at = now + (done - now)
        for r in range(n_receivers):
            if seat_members and r == n_receivers // 2:
                survivors = sum(
                    not (loss_rate and rng.random() < loss_rate)
                    for _ in range(seat_members)
                )
                seat_log.append((done - now, survivors))
            if loss_rate and rng.random() < loss_rate:
                continue
            out.append((at, f"10.0.0.{r + 2}", bytes([i]) * PAYLOAD))
    return out


@pytest.mark.parametrize("switched", [False, True])
def test_batched_arrivals_match_oracle(switched):
    sim, link, arrivals = build_lan(8, switched=switched)
    blast(sim, link)
    assert arrivals == expected_arrivals(8, 20, switched=switched)
    assert len(arrivals) == 8 * 20


@pytest.mark.parametrize("switched", [False, True])
def test_batched_arrivals_match_oracle_under_seeded_loss(switched):
    # one loss draw per receiver in NIC order, exactly as a per-receiver
    # loop would take them, so a seeded run loses the oracle's copies; a
    # cohort seat among the ports takes one draw per member in its place
    seat = StubCohort(members=4)
    sim, link, arrivals = build_lan(8, switched=switched, seat=seat,
                                    loss_rate=0.3, seed=42)
    blast(sim, link, frames=50)
    seat_log = []
    assert arrivals == expected_arrivals(8, 50, switched=switched,
                                         loss_rate=0.3, seed=42,
                                         seat_members=4, seat_log=seat_log)
    assert 0 < len(arrivals) < 8 * 50
    assert seat.frames == seat_log
    assert 0 < sum(r for _, r in seat.frames) < 4 * 50


def test_batching_executes_fewer_events():
    sim, link, arrivals = build_lan(32)
    blast(sim, link, frames=10)
    assert len(arrivals) == 32 * 10
    # per frame: its transmit plus ONE delivery event for all 32 copies
    # (per-receiver scheduling would take 1 + 32)
    assert sim.events_executed == 10 * (1 + 1)


def test_jitter_falls_back_to_per_receiver():
    tel = Telemetry()
    sim, link, arrivals = build_lan(4, jitter=0.01, seed=1, telemetry=tel)
    blast(sim, link, frames=5)
    assert len(arrivals) == 4 * 5
    # per-frame arrival instants differ across receivers under jitter...
    times = {t for t, _, p in arrivals if p == bytes([0]) * 50}
    assert len(times) > 1
    # ...and nothing was counted as a batch
    assert "net.fanout_batch" not in tel.histograms


def test_fault_injector_falls_back_and_still_applies():
    sim, link, arrivals = build_lan(4)
    faults = FaultInjector(sim, loss_rate=0.5, seed=3)
    faults.attach(link)
    blast(sim, link, frames=25)
    # the injector interposed on every copy: whatever it killed never
    # arrived, and kills + arrivals account for the full fan-out
    assert faults.stats.offered == 4 * 25
    assert faults.stats.lost > 0
    assert faults.stats.lost + len(arrivals) == 4 * 25


@pytest.mark.parametrize("switched", [False, True])
def test_fanout_batch_histogram_records_group_sizes(switched):
    tel = Telemetry()
    sim, link, arrivals = build_lan(
        8, switched=switched, telemetry=tel
    )
    blast(sim, link, frames=10)
    assert len(arrivals) == 8 * 10
    hist = tel.histograms["net.fanout_batch"]
    assert hist.count == 10          # one batch per frame
    assert hist.vmin == hist.vmax == 8


def test_unicast_single_receiver_still_batches_cheaply():
    tel = Telemetry()
    sim = Simulator()
    sim.set_telemetry(tel)
    lan = EthernetSegment(sim, latency=0.0)
    a = Nic(lan, "10.0.0.1")
    b = Nic(lan, "10.0.0.2")
    got = []
    b.rx_handler = got.append
    lan.transmit(Datagram("10.0.0.1", 1, "10.0.0.2", 2, b"hi"), sender=a)
    sim.run()
    assert len(got) == 1
    assert tel.histograms["net.fanout_batch"].vmax == 1
