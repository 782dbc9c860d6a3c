"""The fault matrix: end-to-end scenarios on a hostile LAN.

Each scenario injects one class of wire misbehaviour (bursty loss,
duplication, bounded reordering, corruption, a producer restart) through
:class:`~repro.net.faults.FaultInjector` with a fixed seed, then asserts
two things:

* **byte-exactness** — the audio that reached the DAC is exactly the
  payloads of the blocks the speaker committed to playing, in stream
  order, with no duplicated and no out-of-order PCM;
* **a closed ledger** — ``pipeline_report()``'s conservation check still
  balances, with every injected fault itemised.

These are the regression tests for the seq-aware playout stage: before
it, a duplicated wire copy played twice and a reordered copy played out
of order.
"""

import numpy as np
import pytest

from repro.audio import AudioEncoding, AudioParams, sine
from repro.core import EthernetSpeakerSystem
from repro.core.protocol import DataPacket, ProtocolError, parse_packet

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)


def build(n_speakers=1, conceal=False, telemetry=True, **fault_kwargs):
    system = EthernetSpeakerSystem(telemetry=telemetry)
    producer = system.add_producer()
    channel = system.add_channel("ch", params=LOW, compress="never")
    system.add_rebroadcaster(producer, channel, control_interval=0.5)
    nodes = [
        system.add_speaker(channel=channel, conceal_losses=conceal)
        for _ in range(n_speakers)
    ]
    injector = system.inject_faults(**fault_kwargs) if fault_kwargs else None
    captured = []

    def tap(dgram):
        try:
            pkt = parse_packet(dgram.payload)
        except ProtocolError:
            return
        if isinstance(pkt, DataPacket):
            captured.append(pkt)

    system.lan.add_tap(tap)
    return system, producer, nodes, injector, captured


def played_bytes(node):
    """PCM the DAC actually emitted, silence insertions excluded."""
    return b"".join(d for _, d, s, _ in node.sink.records if not s)


def expected_bytes(captured, node):
    """The reference stream restricted to the blocks the speaker logged,
    in transmit (= stream) order."""
    logged = {p for p, _ in node.stats.play_log}
    return b"".join(p.payload for p in captured if p.play_at in logged)


def assert_clean_playout(node, captured):
    positions = [p for p, _ in node.stats.play_log]
    # zero duplicated blocks, never out-of-order PCM
    assert len(positions) == len(set(positions))
    assert positions == sorted(positions)
    assert played_bytes(node) == expected_bytes(captured, node)


# -- duplication ---------------------------------------------------------------


def test_wire_duplication_plays_every_block_exactly_once():
    system, producer, (node,), inj, captured = build(
        duplicate_rate=0.3, seed=21
    )
    system.play_pcm(producer, sine(440, 6.0, 8000), LOW)
    system.run(until=12.0)
    assert inj.stats.duplicated > 5
    assert node.stats.dup_dropped > 0
    # every transmitted block played exactly once: the sink holds the
    # full reference stream byte for byte
    assert played_bytes(node) == b"".join(p.payload for p in captured)
    assert_clean_playout(node, captured)
    rep = system.pipeline_report()
    assert rep.injected_duplicates == inj.stats.duplicated
    assert rep.conservation_ok
    # extra minted copies push the residual negative, never below -dups
    assert -rep.injected_duplicates <= rep.conservation_residual < 0


# -- reordering ----------------------------------------------------------------


def test_wire_reordering_never_plays_out_of_order():
    system, producer, (node,), inj, captured = build(
        reorder_rate=0.2, reorder_window=3, seed=22
    )
    system.play_pcm(producer, sine(440, 6.0, 8000), LOW)
    system.run(until=12.0)
    assert inj.stats.reordered > 5
    assert node.stats.reorder_dropped > 0
    assert node.stats.seq_gaps > 0  # the holes the held copies left
    assert_clean_playout(node, captured)
    rep = system.pipeline_report()
    assert rep.injected_reordered == inj.stats.reordered
    assert rep.injected_pending == 0  # nothing dangles at quiescence
    assert rep.conservation_ok
    # reordered copies all arrived: the residual closes to zero
    assert rep.conservation_residual == 0


# -- bursty loss ---------------------------------------------------------------


def test_burst_loss_concealed_and_itemised():
    system, producer, (node,), inj, captured = build(
        conceal=True, loss_rate=0.1, burst_length=4.0, seed=23
    )
    system.play_pcm(producer, sine(440, 6.0, 8000), LOW)
    system.run(until=12.0)
    assert inj.stats.lost > 0
    assert node.stats.seq_gaps > 0
    assert node.stats.concealed > 0
    assert node.stats.concealed <= node.stats.seq_gaps * 3
    positions = [p for p, _ in node.stats.play_log]
    assert positions == sorted(positions)
    assert len(positions) == len(set(positions))
    rep = system.pipeline_report()
    assert rep.injected_losses == inj.stats.lost
    assert rep.conservation_ok
    # data-copy losses are inside the itemised injected losses (which
    # also count lost control copies)
    assert 0 < rep.conservation_residual <= rep.injected_losses


def test_burst_losses_cluster_on_the_wire():
    """Same mean loss, bursty vs memoryless: the bursty run must lose
    consecutive blocks more often."""

    def max_gap(burst_length, seed):
        system, producer, (node,), _, _ = build(
            loss_rate=0.15, burst_length=burst_length, seed=seed
        )
        system.play_pcm(producer, sine(440, 10.0, 8000), LOW)
        system.run(until=16.0)
        assert node.stats.seq_gaps > 0
        gaps = [
            e["args"]["missing"]
            for e in system.telemetry.tracer.events
            if e.get("name") == "speaker.gap"
        ]
        return max(gaps)

    assert max_gap(8.0, seed=25) > max_gap(1.0, seed=25)


# -- corruption ----------------------------------------------------------------


def test_corruption_survivable_and_accounted():
    system, producer, (node,), inj, captured = build(
        corrupt_rate=0.3, seed=25
    )
    system.play_pcm(producer, sine(440, 6.0, 8000), LOW)
    system.run(until=12.0)
    assert inj.stats.corrupted > 5
    # the speaker survived (kept playing to the end of the stream) even
    # though flipped bytes reached it
    assert node.stats.played > 0
    assert max(p for p, _ in node.stats.play_log) > 5.0
    reference = b"".join(p.payload for p in captured)
    got = played_bytes(node)
    # corrupted payloads play with mangled bytes (RAW passthrough) or
    # are dropped as garbage when the header was hit; both are visible
    assert got != reference
    rep = system.pipeline_report()
    assert rep.injected_corrupted == inj.stats.corrupted
    assert rep.conservation_ok


# -- producer restart ----------------------------------------------------------


def test_producer_restart_resets_sequence_state():
    """A producer restart rewinds seq to 1 and the stream clock to 0.
    The speaker must re-anchor AND reset its sequence state — without the
    reset the monotonic playout filter would discard the entire second
    stream as stale."""
    system, producer, (node,), _, _ = build()
    rb1 = system.rebroadcasters[0]
    system.play_synthetic(producer, 5.0, LOW)
    system.sim.schedule(3.0, rb1.crash)

    def restart():
        from repro.kernel.vad import VadPair

        VadPair(producer.machine, slave_path="/dev/vads2",
                master_path="/dev/vadm2")
        system.add_rebroadcaster(producer, system.channels[0],
                                 master_path="/dev/vadm2",
                                 control_interval=0.5)
        system.play_synthetic(producer, 5.0, LOW, slave_path="/dev/vads2")

    system.sim.schedule(6.0, restart)
    system.run(until=15.0)
    st = node.stats
    assert st.resyncs >= 1
    # blocks of the new stream arriving before the second control packet
    # confirms the re-anchor are unavoidably discarded (they are already
    # past their deadline under the old anchor); the casualty window is
    # bounded by the resync debounce, about one control interval
    handoff_casualties = st.dup_dropped + st.reorder_dropped + st.late_dropped
    assert handoff_casualties <= 2 * 0.5 / 0.065  # two control intervals
    times = [t for _, t in st.play_log]
    assert min(times) < 3.0
    assert max(times) > 7.0
    # gap accounting did not explode across the seq rewind
    assert st.seq_gaps < 10


def test_resync_resets_concealment_context():
    """After a re-anchor the old stream's last block must not be used to
    conceal into the new stream."""
    system, producer, (node,), _, _ = build(conceal=True)
    rb1 = system.rebroadcasters[0]
    system.play_pcm(producer, sine(440, 4.0, 8000), LOW)
    system.sim.schedule(2.5, rb1.crash)

    def restart():
        from repro.kernel.vad import VadPair

        VadPair(producer.machine, slave_path="/dev/vads2",
                master_path="/dev/vadm2")
        system.add_rebroadcaster(producer, system.channels[0],
                                 master_path="/dev/vadm2",
                                 control_interval=0.5)
        system.play_pcm(producer, sine(880, 4.0, 8000), LOW,
                        slave_path="/dev/vads2")

    system.sim.schedule(6.0, restart)
    system.run(until=14.0)
    assert node.stats.resyncs >= 1
    assert node.speaker._last_pcm is not None  # the new stream is live
    # no concealment across the restart boundary: the reset cleared the
    # context, so concealed blocks can only come from same-stream gaps
    assert node.stats.concealed == 0


# -- the acceptance scenario ---------------------------------------------------


def test_acceptance_mixed_faults_scenario():
    """ISSUE acceptance: 1% Gilbert–Elliott loss + 0.5% duplication +
    reorder window 3 — zero duplicated blocks played, never out-of-order
    PCM, and the conservation ledger balances with faults itemised."""
    system, producer, (node,), inj, captured = build(
        loss_rate=0.01, burst_length=5.0, duplicate_rate=0.005,
        reorder_rate=0.05, reorder_window=3, seed=31,
    )
    system.play_pcm(producer, sine(440, 20.0, 8000), LOW)
    system.run(until=28.0)
    st = inj.stats
    assert st.lost > 0 and st.duplicated > 0 and st.reordered > 0
    assert_clean_playout(node, captured)
    rep = system.pipeline_report()
    assert rep.injected_losses == st.lost
    assert rep.injected_duplicates == st.duplicated
    assert rep.injected_reordered == st.reordered
    assert rep.injected_pending == 0
    assert rep.conservation_ok
    assert "injected losses" in rep.summary()


def test_mixed_faults_ledger_closes_without_telemetry():
    """The fault accounting is component stats, not telemetry: the
    ledger must close with the registry disabled too."""
    system, producer, (node,), inj, captured = build(
        telemetry=False, loss_rate=0.08, burst_length=3.0,
        duplicate_rate=0.1, reorder_rate=0.1, seed=27,
    )
    system.play_pcm(producer, sine(440, 6.0, 8000), LOW)
    system.run(until=12.0)
    assert inj.stats.lost > 0 and inj.stats.duplicated > 0
    assert_clean_playout(node, captured)
    rep = system.pipeline_report()
    assert rep.conservation_ok
    (ch,) = rep.channels
    assert ch.dup_dropped == node.stats.dup_dropped
    assert ch.reorder_dropped == node.stats.reorder_dropped


def test_mixed_faults_multi_speaker_skew_still_tight():
    """Faults at one receiver must not drag the others: common positions
    still play within the paper's perceptual sync budget."""
    system, producer, nodes, inj, _ = build(
        n_speakers=3, loss_rate=0.02, burst_length=4.0,
        duplicate_rate=0.05, reorder_rate=0.05, seed=28,
    )
    system.play_pcm(producer, sine(440, 6.0, 8000), LOW)
    system.run(until=12.0)
    for node in nodes:
        positions = [p for p, _ in node.stats.play_log]
        assert positions == sorted(positions)
    skew = system.skew_report(nodes)
    assert skew["positions"] > 0
    # a dropped block leaves that speaker's device ring shallower, so the
    # same position can leave its DAC earlier: residual skew is bounded
    # by the ring depth (8 blocks x 65 ms), not by network misbehaviour
    ring = nodes[0].device.ring_blocks * 0.065
    assert skew["max_skew"] < ring
    assert system.pipeline_report().conservation_ok


# -- retune hygiene ------------------------------------------------------------


def test_retune_clears_per_stream_state():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    a = system.add_channel("a", params=LOW, compress="never")
    b = system.add_channel("b", params=LOW, compress="never")
    system.add_rebroadcaster(producer, a, control_interval=0.5)
    node = system.add_speaker(channel=a, conceal_losses=True)
    system.play_pcm(producer, sine(440, 3.0, 8000), LOW)
    system.run(until=2.0)
    sp = node.speaker
    written_before = sp._bytes_written
    assert written_before > 0
    assert sp._last_seq is not None
    sp.retune(b.group_ip, b.port)
    # nothing of the old channel may leak into the new session
    assert sp._anchor is None
    assert sp._params is None
    assert sp._last_seq is None
    assert sp._last_pcm is None
    assert sp._playing_started is False
    assert sp._bytes_written == 0
    assert sp._decoder is None and sp._decoder_key is None
    assert len(sp._recent_seqs) == 0
    # ...but the absolute device-byte mapping survives via the base
    assert sp._write_base == written_before


def test_retune_write_offsets_stay_consistent_with_the_dac():
    """After a retune the stream-offset -> DAC-time mapping must keep
    working: offsets are absolute even though _bytes_written restarts."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    from repro.kernel.vad import VadPair

    VadPair(producer.machine, slave_path="/dev/vads2",
            master_path="/dev/vadm2")
    a = system.add_channel("a", params=LOW, compress="never")
    b = system.add_channel("b", params=LOW, compress="never")
    system.add_rebroadcaster(producer, a, control_interval=0.5)
    system.add_rebroadcaster(producer, b, master_path="/dev/vadm2",
                             control_interval=0.5)
    node = system.add_speaker(channel=a)
    system.play_pcm(producer, sine(440, 10.0, 8000), LOW,
                    source_paced=True)
    system.play_pcm(producer, sine(880, 10.0, 8000), LOW,
                    source_paced=True, slave_path="/dev/vads2")
    system.sim.schedule(4.0, node.speaker.retune, b.group_ip, b.port)
    system.run(until=14.0)
    # offsets strictly increase across the retune boundary (absolute),
    # and each maps to a real DAC emission time
    offsets = [o for _, o in node.stats.write_offsets]
    assert offsets == sorted(offsets)
    times = [node.sink.time_at_bytes(o) for _, o in node.stats.write_offsets]
    emitted = [t for t in times if t is not None]
    assert len(emitted) > 10
    assert emitted == sorted(emitted)
