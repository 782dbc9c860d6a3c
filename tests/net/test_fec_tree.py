"""The WAN recovery ladder end to end: FEC repair on live relay trees.

Covers the acceptance bar for the FEC tentpole:

* **differential** — a 2-tier tree under seeded GE burst loss at or
  below repair capacity, ``recovery="fec"``, plays **bit-identically**
  to the lossless tree (play counts, write offsets, waveform, closed
  ledger) with **zero reverse traffic** (no NACKs, no retransmits);
* above capacity the holes stay bounded — playback continues, the
  abandoned count is finite, and the conservation ledger still closes
  with the ``wan_fec_*`` rows folded in;
* ``"fec+nack"`` runs the full ladder: parity repairs first and the
  reverse path is only exercised for FEC's failures, so it sends
  strictly fewer NACKs than a NACK-only hop on the same loss pattern;
* the full hostile-WAN fault chain (GE loss, duplication, corruption,
  bounded reorder) attached to a hop: corrupt frames die at the parser
  and are counted, duplicates/reorders are absorbed, ledger closes;
* the receiver-restart bugfix: a retransmit in flight across
  ``reset_receiver()`` must never re-anchor the cold resequencer or
  regress a live epoch (both were possible before; each produced a
  phantom-gap abandon storm).
"""

import pytest

from repro.audio import AudioEncoding, AudioParams
from repro.codec import CodecID
from repro.core import EthernetSpeakerSystem
from repro.core.protocol import DataPacket
from repro.net import WanLink
from repro.net.wan import WanHop
from repro.sim import Simulator

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)


def build_tree(seed=3, tiers=2, **wan_kw):
    s = EthernetSpeakerSystem(seed=seed)
    p = s.add_producer()
    ch = s.add_channel("radio", params=LOW, compress="never")
    rb = s.add_rebroadcaster(p, ch, control_interval=0.5)
    parent = rb
    for i in range(tiers):
        parent = s.add_relay(parent, name=f"relay{i}", **wan_kw)
    leaf = s.add_leaf_lan(parent, ch, name="leaf")
    spk = s.add_speaker(channel=ch, lan=leaf)
    return s, p, spk


def run_tree(**wan_kw):
    s, p, spk = build_tree(**wan_kw)
    s.play_synthetic(p, 10.0, LOW)
    s.run(until=12.5)
    return s, spk


def leaf_fingerprint(spk):
    return (
        spk.stats.played,
        [off for _, off in spk.stats.write_offsets],
        bytes(spk.sink.waveform().tobytes()),
    )


# -- the differential --------------------------------------------------------


def test_fec_differential_bit_identical_with_zero_reverse_traffic():
    """GE burst loss <= repair capacity, FEC-only: the leaf plays the
    exact bytes of the lossless run and the reverse path stays silent."""
    s0, spk0 = run_tree(latency=0.03)
    s1, spk1 = run_tree(
        latency=0.03, recovery="fec", fec_k=4, fec_r=2, fec_interleave=2,
        wan_faults=dict(loss_rate=0.04, burst_length=2.0, seed=3),
    )
    assert leaf_fingerprint(spk1) == leaf_fingerprint(spk0)
    lost = sum(h.link.faults.stats.lost for h in s1.wan_hops)
    repaired = sum(h.fec.repaired for h in s1.wan_hops)
    assert lost > 0, "injector idle; differential is vacuous"
    assert repaired > 0, "no repairs exercised; differential is vacuous"
    for hop in s1.wan_hops:
        # zero reverse traffic: FEC-only never NACKs, never retransmits
        assert hop.stats.nacks_sent == 0
        assert hop.stats.retransmitted == 0
        assert hop.link.stats.retransmits == 0
        assert hop.fec.unrepairable == 0
        assert hop.stats.abandoned == 0
    rep = s1.pipeline_report()
    assert rep.stats["fec"].parity_sent > 0
    assert rep.stats["fec"].repaired == repaired
    assert rep.conservation_residual == 0, rep.summary()


def test_fec_above_capacity_holes_bounded_ledger_closed():
    """Bursts beyond r=1: some groups are unrepairable, the hop abandons
    the holes after a bounded timeout, playback never stalls, and the
    ledger still closes with the FEC rows included."""
    s, spk = run_tree(
        tiers=1, latency=0.03, recovery="fec", fec_k=4, fec_r=1,
        wan_faults=dict(loss_rate=0.25, burst_length=4.0, seed=9),
    )
    hop = s.wan_hops[0]
    assert hop.fec.repaired > 0          # the repairable groups repaired
    assert hop.stats.abandoned > 0       # the rest became bounded holes
    assert hop.stats.nacks_sent == 0     # still zero reverse traffic
    # bounded degradation, not a stall: most of the stream still plays
    assert spk.stats.played > 100
    positions = [t for t, _ in spk.stats.play_log]
    assert all(b > a for a, b in zip(positions, positions[1:]))
    rep = s.pipeline_report()
    assert rep.stats["fec"].parity_sent > 0
    assert "fec.parity_sent" in rep.summary()
    assert rep.conservation_ok, rep.summary()


def test_fec_nack_ladder_spares_the_reverse_path():
    """Same GE loss pattern, NACK-only vs the full ladder: FEC absorbs
    most holes first, so fec+nack NACKs and retransmits strictly less."""
    def run(recovery):
        s, spk = run_tree(
            tiers=1, latency=0.03, recovery=recovery, fec_k=4, fec_r=1,
            fec_interleave=2,
            wan_faults=dict(loss_rate=0.12, burst_length=2.0, seed=7),
        )
        return s, spk

    s_nack, spk_nack = run("nack")
    s_both, spk_both = run("fec+nack")
    h_nack = s_nack.wan_hops[0]
    h_both = s_both.wan_hops[0]
    assert h_nack.stats.nacks_sent > 0
    assert h_both.fec.repaired > 0
    assert h_both.stats.nacks_sent < h_nack.stats.nacks_sent
    assert h_both.stats.retransmitted < h_nack.stats.retransmitted
    # the ladder recovers at least as much as NACK alone
    assert spk_both.stats.played >= spk_nack.stats.played
    assert s_both.pipeline_report().conservation_ok
    assert s_nack.pipeline_report().conservation_ok


# -- the full per-hop fault chain --------------------------------------------


def test_wan_fault_chain_corruption_duplication_reorder():
    """GE loss + dup + corrupt + bounded reorder on one hop: corrupt
    frames die at the parser (counted), dup/reorder are absorbed by the
    resequencer, and the ledger closes exactly."""
    s, spk = run_tree(
        tiers=1, latency=0.03, recovery="fec", fec_k=4, fec_r=2,
        fec_interleave=2,
        wan_faults=dict(loss_rate=0.05, burst_length=2.0,
                        duplicate_rate=0.05, corrupt_rate=0.05,
                        reorder_rate=0.05, reorder_hold=0.04, seed=5),
    )
    hop = s.wan_hops[0]
    inj = hop.link.faults.stats
    assert inj.lost > 0 and inj.duplicated > 0
    assert inj.corrupted > 0 and inj.reordered > 0
    # a corrupted frame either fails the header peek / body crc (counted
    # here) or parses as stale (dup of a delivered seq) — never forwarded
    assert hop.stats.corrupt_dropped > 0
    rep = s.pipeline_report()
    wan_faults = rep.stats["wan_faults"]
    assert wan_faults.lost == inj.lost
    assert wan_faults.duplicated == inj.duplicated
    assert wan_faults.corrupted == inj.corrupted
    assert wan_faults.reordered == inj.reordered
    assert rep.stats["wan_hop"].corrupt_dropped == hop.stats.corrupt_dropped
    assert rep.conservation_ok, rep.summary()
    assert spk.stats.played > 100


def test_wan_injector_must_be_dedicated():
    """An injector already serving LAN links cannot attach to a WanLink
    (its counters would corrupt the hop's conservation budget)."""
    from repro.net.faults import FaultInjector

    sim = Simulator()
    inj = FaultInjector(sim, loss_rate=0.1, seed=1)
    inj.links.append(object())  # pretend a LAN link is attached
    link = WanLink(sim, name="wx")
    with pytest.raises(ValueError):
        link.set_fault_injector(inj)


def test_fault_chain_determinism():
    def fingerprint():
        s, spk = run_tree(
            tiers=2, latency=0.03, recovery="fec+nack", fec_k=4, fec_r=1,
            wan_faults=dict(loss_rate=0.10, burst_length=3.0,
                            duplicate_rate=0.03, corrupt_rate=0.03,
                            reorder_rate=0.03, reorder_hold=0.05, seed=13),
        )
        hop = s.wan_hops[0]
        return (spk.stats.played, tuple(spk.stats.play_log),
                hop.fec.repaired, hop.stats.abandoned,
                hop.link.faults.stats.lost)

    assert fingerprint() == fingerprint()


# -- receiver restart vs in-flight retransmits (the bugfix) ------------------


def _data(seq, epoch=0, payload=b"payload!"):
    return DataPacket(
        channel_id=1, seq=seq, play_at=0.0, payload=payload,
        codec_id=CodecID.RAW, epoch=epoch,
    ).encode()


def _lossy_send(hop, wire):
    """Offer ``wire`` to the hop but kill it on the link (deterministic
    single-frame loss: the sender ring keeps it, the wire drops it)."""
    saved = hop.link.loss_rate
    hop.link.loss_rate = 1.0
    hop.send(wire)
    hop.link.loss_rate = saved


def test_restart_during_recovery_never_anchors_on_retransmit():
    """reset_receiver() with a retransmit in flight: the replay lands on
    a cold resequencer and must be stale-dropped, not adopted as the
    anchor (which would re-open a phantom gap behind the live stream
    and abandon its way forward through it)."""
    from repro.core.protocol import peek_header

    sim = Simulator()
    link = WanLink(sim, bandwidth_bps=1e9, latency=0.05, jitter=0.0)
    got = []
    hop = WanHop(link, lambda w: got.append(peek_header(w)[2]),
                 recovery="nack")

    for seq in (0, 1):
        hop.send(_data(seq))
    _lossy_send(hop, _data(2))          # in the ring, dead on the wire
    for seq in (3, 4):
        hop.send(_data(seq))
    # gap detected at t=0.05; NACK at ~0.055; retransmit serialised at
    # ~0.105, arriving ~0.155 — restart the receiver while it is in flight
    sim.run(until=0.12)
    assert got == [0, 1]                # 3, 4 parked behind the gap
    assert hop.stats.retransmitted == 1
    hop.reset_receiver()
    sim.schedule(0.0, hop.send, _data(5))
    sim.schedule(0.0, hop.send, _data(6))
    sim.run()
    # the replay of 2 (epoch-live but cold resequencer) was refused
    assert got == [0, 1, 5, 6]
    assert hop.stats.abandoned == 0, "phantom gap: retransmit re-anchored"
    # 2 parked frames died in the reset + the refused replay
    assert hop.stats.stale_dropped == 3


def test_stale_epoch_retransmit_never_flushes_live_state():
    """A retransmit from a dead epoch arriving after the hop adopted a
    newer one must be dropped — before the fix it flushed the live
    resequencer and regressed the epoch, stalling the new stream."""
    from repro.core.protocol import peek_header

    sim = Simulator()
    link = WanLink(sim, bandwidth_bps=1e9, latency=0.05, jitter=0.0)
    got = []

    def collect(w):
        _, _, seq, epoch = peek_header(w)
        got.append((epoch, seq))

    hop = WanHop(link, collect, recovery="nack")

    for seq in (10, 11):
        hop.send(_data(seq, epoch=0))
    hop.send(_data(0, epoch=1))  # upstream restarted: epoch steps
    hop.send(_data(1, epoch=1))
    sim.run()
    assert hop._rx_epoch == 1
    # a jitter-delayed epoch-0 replay limps in through the retransmit
    # delivery path after the hop has moved on
    hop._arrive_retransmit(_data(12, epoch=0))
    assert hop._rx_epoch == 1, "stale retransmit regressed the epoch"
    assert hop.stats.stale_dropped == 1
    hop.send(_data(2, epoch=1))
    sim.run()
    # epoch-1 frames flowed uninterrupted around the replay
    assert [g for g in got if g[0] == 1] == [(1, 0), (1, 1), (1, 2)]
    assert got[:2] == [(0, 10), (0, 11)]


def test_fec_hop_restart_mid_group_stays_consistent():
    """Crash a relay mid-FEC-group: the restarted receiver's reassembler
    is empty, stale parity from the old incarnation is dropped (never
    adopted), and the tree keeps playing with a closed ledger."""
    s, p, spk = build_tree(
        seed=2, tiers=2, latency=0.03, recovery="fec", fec_k=4, fec_r=2,
        fec_interleave=2,
        wan_faults=dict(loss_rate=0.05, burst_length=2.0, seed=4),
    )
    s.play_synthetic(p, 10.0, LOW)
    s.schedule_fault(s.relays[1], after=4.0, restart_after=1.0)
    s.run(until=12.5)
    assert s.relays[1].stats.restarts == 1
    assert spk.stats.played > 80
    rep = s.pipeline_report()
    assert rep.conservation_ok, rep.summary()
