"""WAN relay tree: tandem-free forwarding, per-hop recovery, accounting.

Covers the relay-tree subsystem end to end:

* the :class:`~repro.net.wan.WanLink` determinism bugfix (loss and jitter
  draw from independent seeded streams, so toggling loss cannot shift the
  jitter of surviving frames);
* the WAN telemetry counters and the conservation ledger across lossy
  multi-hop trees, NACK retransmissions, and relay failover;
* ``reset()`` cold-starting the serialization queue after a relay restart;
* reorder-heavy links still yielding strictly monotonic playout at a leaf
  LAN speaker;
* the acceptance bar: leaf playout bit-identical between a 1-tier and a
  2-tier tree on a lossless run.
"""

import pytest

from repro.audio import AudioEncoding, AudioParams
from repro.core import EthernetSpeakerSystem
from repro.net import WanLink
from repro.sim import Simulator

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)


# -- WanLink bugfix sweep --------------------------------------------------------


def test_wan_jitter_independent_of_loss():
    """Same seed, loss on vs off: surviving frames arrive at identical times.

    Before the RNG split a dropped frame consumed a jitter draw (or vice
    versa), so enabling loss reshuffled the timing of every later frame.
    """
    def run(loss_rate):
        sim = Simulator()
        wan = WanLink(sim, bandwidth_bps=1e9, latency=0.05, jitter=0.04,
                      loss_rate=loss_rate, seed=7)
        arrivals = {}
        for i in range(200):
            wan.send(bytes([i % 251]),
                     lambda p, i=i: arrivals.setdefault(i, sim.now))
        sim.run()
        return arrivals

    clean = run(0.0)
    lossy = run(0.5)
    assert len(clean) == 200
    assert 0 < len(lossy) < 200
    for i, t in lossy.items():
        assert t == clean[i], f"frame {i} jitter shifted when loss enabled"


def test_wan_telemetry_counters():
    sim = Simulator()
    wan = WanLink(sim, loss_rate=0.5, seed=3, jitter=0.0)
    got = []
    for _ in range(200):
        wan.send(b"x", lambda p: got.append(p))
    sim.run()
    assert wan.sent == 200
    assert wan.delivered == len(got)
    assert wan.lost == 200 - len(got)
    assert wan.sent == wan.delivered + wan.lost
    assert wan.retransmits == 0
    assert wan.in_flight == 0


def test_wan_retransmit_counter_separated():
    sim = Simulator()
    wan = WanLink(sim, jitter=0.0)
    wan.send(b"a", lambda p: None)
    wan.send(b"a", lambda p: None, retransmit=True)
    sim.run()
    assert wan.sent == 2
    assert wan.retransmits == 1


def test_wan_reset_cold_starts_serialization():
    """A restarted relay must not inherit the dead incarnation's backlog.

    Without the ``_free_at`` reset, frames queued before a crash keep the
    line busy into the future and every post-restart frame serialises
    behind ghosts.
    """
    sim = Simulator()
    wan = WanLink(sim, bandwidth_bps=1e6, latency=0.0, jitter=0.0)
    for _ in range(10):
        wan.send(bytes(12500), lambda p: None)  # 100 ms each -> busy to t=1.0
    wan.reset()
    arrivals = []
    wan.send(bytes(12500), lambda p: arrivals.append(sim.now))
    sim.run()
    # Cold start: the post-reset frame serialises from t=0, not t=1.0.
    assert arrivals[0] == pytest.approx(0.1)


# -- tree construction and tandem-free forwarding --------------------------------


def build_tree(seed=0, tiers=1, **wan_kw):
    """Origin -> (tiers x relay) -> leaf LAN with one speaker."""
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


def test_leaf_speaker_plays_through_tree():
    s, p, spk = build_tree(tiers=2, latency=0.02)
    s.play_synthetic(p, 8.0, LOW)
    s.run(until=10.0)
    assert spk.stats.played > 0
    rep = s.pipeline_report()
    assert rep.conservation_ok, rep.summary()
    relay = s.relays[0]
    assert relay.stats.forwarded > 0
    # Tandem-free: relays re-multicast without transcoding, so no codec
    # work is billed to them (only parse-and-forward).
    assert relay.stats.garbage_rx == 0


def test_playout_bit_identical_across_tiers():
    """Acceptance: 1-tier and 2-tier trees play bit-identical audio.

    Relays forward the compressed wire image untouched (no decode/re-encode
    tandem), so on a lossless run the leaf DAC must see the same bytes at
    the same stream offsets regardless of tree depth.
    """
    results = {}
    for tiers in (1, 2):
        s, p, spk = build_tree(seed=5, tiers=tiers, latency=0.02)
        s.play_synthetic(p, 6.0, LOW)
        s.run(until=9.0)
        rep = s.pipeline_report()
        assert rep.conservation_residual == 0, rep.summary()
        results[tiers] = (
            spk.stats.played,
            [off for _, off in spk.stats.write_offsets],
            bytes(spk.sink.waveform().tobytes()),
        )
    played_1, offsets_1, wave_1 = results[1]
    played_2, offsets_2, wave_2 = results[2]
    assert played_1 == played_2 > 0
    assert offsets_1 == offsets_2
    assert wave_1 == wave_2


def test_tree_determinism():
    def fingerprint():
        s, p, spk = build_tree(seed=11, tiers=2, latency=0.03, jitter=0.02,
                               loss_rate=0.05, wan_seed=9)
        s.play_synthetic(p, 6.0, LOW)
        s.run(until=8.0)
        return (spk.stats.played, tuple(spk.stats.play_log))

    assert fingerprint() == fingerprint()


# -- reorder / loss recovery -----------------------------------------------------


def test_reordering_wan_keeps_leaf_monotonic():
    """Satellite 4: a jitter-heavy (reordering) WAN hop never makes the
    downstream LAN stream go backwards — the leaf speaker's playout
    positions stay strictly monotonic and the ledger still closes."""
    s, p, spk = build_tree(seed=4, tiers=1, latency=0.02, jitter=0.25,
                           wan_seed=5)
    s.play_synthetic(p, 10.0, LOW)
    s.run(until=12.0)
    st = spk.stats
    assert st.played > 50
    assert st.reorder_dropped > 0, "link not reordering; test is vacuous"
    positions = [play_at for play_at, _ in st.play_log]
    assert all(b > a for a, b in zip(positions, positions[1:]))
    assert s.pipeline_report().conservation_ok


def test_nack_recovers_lost_frames():
    def run(nack):
        s, p, spk = build_tree(seed=3, tiers=1, latency=0.03, loss_rate=0.08,
                               wan_seed=11,
                               recovery="nack" if nack else "none")
        s.play_synthetic(p, 10.0, LOW)
        s.run(until=12.0)
        return s, spk

    s0, spk0 = run(False)
    s1, spk1 = run(True)
    hop = s1.wan_hops[0]
    assert hop.stats.nacks_sent > 0
    assert hop.stats.recovered > 0
    assert hop.link.retransmits == hop.stats.retransmitted > 0
    assert spk1.stats.played > spk0.stats.played
    rep = s1.pipeline_report()
    assert rep.wan_retransmits == hop.link.retransmits
    assert rep.conservation_ok, rep.summary()
    # With every first-copy loss recovered, the ledger closes exactly.
    if hop.stats.abandoned == 0 and hop.link.lost == hop.stats.recovered:
        assert rep.conservation_residual == 0


def test_conservation_closes_across_lossy_multihop():
    s, p, spk = build_tree(seed=8, tiers=2, latency=0.02, jitter=0.01,
                           loss_rate=0.06, wan_seed=21)
    s.play_synthetic(p, 8.0, LOW)
    s.run(until=10.0)
    rep = s.pipeline_report()
    assert rep.wan_lost > 0, "links not lossy; test is vacuous"
    assert rep.wan_sent == rep.wan_delivered + rep.wan_lost + rep.wan_in_flight
    assert rep.conservation_ok, rep.summary()


# -- relay failover --------------------------------------------------------------


def build_failover_tree(seed=2):
    """Origin -> regional (crashes) -> leaf relay with local fallback."""
    s = EthernetSpeakerSystem(seed=seed)
    p = s.add_producer()
    ch = s.add_channel("radio", params=LOW, compress="never")
    rb = s.add_rebroadcaster(p, ch, control_interval=0.5)
    regional = s.add_relay(rb, name="regional", latency=0.03)
    leaf_relay = s.add_relay(regional, name="edge", latency=0.01,
                             fallback=True, fallback_timeout=0.8,
                             check_interval=0.2, control_interval=0.5)
    leaf = s.add_leaf_lan(leaf_relay, ch, name="leaf")
    spk = s.add_speaker(channel=ch, lan=leaf)
    return s, p, spk, regional, leaf_relay


def test_relay_fallback_and_standdown():
    """Losing the uplink switches the edge relay to a local filler source;
    the uplink epoch reappearing stands it down (Liquidsoap-style)."""
    s, p, spk, regional, edge = build_failover_tree()
    s.play_synthetic(p, 13.0, LOW)
    s.schedule_fault(regional, after=4.0, restart_after=2.0)
    s.run(until=12.5)

    assert edge.stats.fallbacks == 1
    assert edge.stats.standdowns == 1
    assert edge.stats.filler_data > 0
    assert regional.stats.restarts == 1
    # Speaker re-anchors onto the fallback epoch, then back on recovery.
    assert spk.stats.epoch_resyncs == 2
    assert len(spk.stats.rejoin_gaps) == 2
    # Rejoin bounded by fallback_timeout + check_interval + control cadence
    # + playout latency + margin.
    for gap in spk.stats.rejoin_gaps:
        assert gap < 0.8 + 0.2 + 0.5 + 0.4 + 0.2
    # Playback continues past the outage.
    last_play = spk.stats.play_log[-1][0]
    assert last_play > 11.0
    rep = s.pipeline_report()
    assert rep.relay_fallbacks == 1
    assert rep.relay_standdowns == 1
    assert rep.relay_filler == edge.stats.filler_data
    assert rep.conservation_ok, rep.summary()


def test_relay_restart_resets_downlink_serialization():
    """Crash with a queued backlog; after restart the downlink line is idle."""
    s, p, spk, regional, edge = build_failover_tree(seed=6)
    s.play_synthetic(p, 8.0, LOW)
    s.schedule_fault(regional, after=3.0, restart_after=1.0)
    s.run(until=7.5)
    for hop in regional.downlinks:
        assert hop.link._free_at <= s.sim.now
    assert spk.stats.played > 0
    assert s.pipeline_report().conservation_ok


def test_failover_determinism():
    def fingerprint():
        s, p, spk, regional, edge = build_failover_tree()
        s.play_synthetic(p, 13.0, LOW)
        s.schedule_fault(regional, after=4.0, restart_after=2.0)
        s.run(until=12.5)
        return (spk.stats.played, spk.stats.epoch_resyncs,
                tuple(spk.stats.rejoin_gaps), tuple(spk.stats.play_log))

    assert fingerprint() == fingerprint()
