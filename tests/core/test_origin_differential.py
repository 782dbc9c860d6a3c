"""Differential harness: the vectorized origin must be bit-identical to
the scalar origin it replaces.

Every scenario builds the same multi-channel station twice on the same
seeds — once with ``batched_encode=True`` (whole-block numpy kernels)
and once with ``batched_encode=False`` (the per-frame/per-band scalar
reference loops) — and asserts that every speaker's playout
(``play_log``, ``write_offsets``), every ``SpeakerStats`` counter, and
the channel/pipeline ledgers agree exactly, clean and under GE faults.

The encode cache gets the same treatment: enabling it may only change
host-side work (its own hit/miss counters), never a wire byte, a played
sample, or the conservation ledger — cache counters are itemised
out-of-band of the conservation bound.
"""

import dataclasses

import pytest

from repro.audio import music
from repro.audio.params import CD_QUALITY
from repro.codec import CodecID, VorbisLikeCodec
from repro.core import EthernetSpeakerSystem
from repro.core.protocol import DataPacket, parse_packet

CHANNELS = 2
SPEAKERS = 2
STREAM_SECONDS = 1.5
HORIZON = 7.0

#: PipelineReport fields that describe simulated reality (must match);
#: host-side bookkeeping (encode/decode cache counters, batch histograms)
#: may differ by construction and is deliberately absent
PIPELINE_FIELDS = (
    "underruns", "silence_seconds", "wire_drops", "wire_losses",
    "injected_losses", "injected_duplicates", "injected_reordered",
    "injected_corrupted", "injected_pending", "failovers", "standdowns",
    "epoch_resyncs", "rejoins", "max_rejoin_gap",
)


def build(scenario, seed, *, batched_encode=True, shared_encode=True,
          channels=CHANNELS, speakers=SPEAKERS,
          stream_seconds=STREAM_SECONDS, horizon=HORIZON, tap=None):
    system = EthernetSpeakerSystem(
        seed=seed,
        telemetry=True,
        batched_encode=batched_encode,
        shared_encode=shared_encode,
    )
    if tap is not None:
        system.lan.add_tap(tap)
    pcm = music(stream_seconds, 44100, seed=seed)
    nodes = []
    for i in range(channels):
        producer = system.add_producer(
            name=f"origin{i}",
            slave_path=f"/dev/vads{i}",
            master_path=f"/dev/vadm{i}",
        )
        channel = system.add_channel(f"ch{i}", params=CD_QUALITY,
                                     compress="always")
        system.add_rebroadcaster(producer, channel, control_interval=0.5,
                                 master_path=f"/dev/vadm{i}")
        for _ in range(speakers):
            nodes.append(system.add_speaker(channel=channel))
        system.play_pcm(producer, pcm, CD_QUALITY,
                        slave_path=f"/dev/vads{i}")
    if scenario == "ge-loss-dup-reorder":
        system.inject_faults(loss_rate=0.05, burst_length=3,
                             duplicate_rate=0.02, reorder_rate=0.03,
                             reorder_window=4, seed=seed + 100)
    elif scenario == "corruption":
        system.inject_faults(corrupt_rate=0.04, seed=seed + 100)
    system.run(until=horizon)
    return system, nodes


def assert_fleets_identical(nodes_a, nodes_b):
    assert len(nodes_a) == len(nodes_b)
    for i, (na, nb) in enumerate(zip(nodes_a, nodes_b)):
        a, b = na.speaker.stats, nb.speaker.stats
        assert a.play_log == b.play_log, f"speaker {i} playout differs"
        assert a.write_offsets == b.write_offsets, \
            f"speaker {i} device offsets differ"
        for f in dataclasses.fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), \
                f"speaker {i} stats.{f.name}: " \
                f"{getattr(a, f.name)!r} != {getattr(b, f.name)!r}"


def assert_ledgers_identical(report_a, report_b):
    assert len(report_a.channels) == len(report_b.channels)
    for ca, cb in zip(report_a.channels, report_b.channels):
        assert ca == cb, f"channel ledger differs:\n{ca}\n{cb}"
    for f in PIPELINE_FIELDS:
        assert getattr(report_a, f) == getattr(report_b, f), \
            f"pipeline.{f}: {getattr(report_a, f)!r} != " \
            f"{getattr(report_b, f)!r}"
    assert report_a.conservation_residual == report_b.conservation_residual
    assert report_a.conservation_ok and report_b.conservation_ok


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("scenario", [
    "clean", "ge-loss-dup-reorder", "corruption",
])
def test_batched_origin_matches_scalar_origin(scenario, seed):
    sys_fast, nodes_fast = build(scenario, seed, batched_encode=True)
    sys_slow, nodes_slow = build(scenario, seed, batched_encode=False)
    assert nodes_fast[0].speaker.stats.played > 0
    assert_fleets_identical(nodes_fast, nodes_slow)
    assert_ledgers_identical(sys_fast.pipeline_report(),
                             sys_slow.pipeline_report())


@pytest.mark.parametrize("seed", [7, 23])
def test_clean_station_decodes_every_wire_payload_both_ways(seed):
    """Both fleets above decode with the batched kernel, and a speaker
    counts any decode exception as ``decode_failed`` — so a decode-kernel
    bug would read as modelled loss.  On a clean wire nothing may fail to
    decode, and every data payload on the wire must decode to the same
    samples through the batched kernel and the scalar reference loop."""
    wire = []
    for batched_encode in (True, False):
        _, nodes = build("clean", seed, batched_encode=batched_encode,
                         tap=lambda dgram: wire.append(dgram.payload))
        for i, node in enumerate(nodes):
            assert node.speaker.stats.played > 0
            assert node.speaker.stats.decode_failed == 0, \
                f"speaker {i} failed to decode (batched_encode=" \
                f"{batched_encode})"
    data = [p for p in map(parse_packet, wire) if isinstance(p, DataPacket)]
    assert data
    fast = VorbisLikeCodec(sample_rate=CD_QUALITY.sample_rate, batched=True)
    slow = VorbisLikeCodec(sample_rate=CD_QUALITY.sample_rate, batched=False)
    for packet in data:
        assert packet.codec_id == CodecID.VORBIS_LIKE
        # the payload is a memoryview into the frame, as speakers see it
        assert fast.decode_block(packet.payload).tobytes() == \
            slow.decode_block(packet.payload).tobytes()


@pytest.mark.parametrize("seed", [7, 23])
def test_encode_cache_changes_nothing_but_its_counters(seed):
    sys_on, nodes_on = build("ge-loss-dup-reorder", seed,
                             shared_encode=True)
    sys_off, nodes_off = build("ge-loss-dup-reorder", seed,
                               shared_encode=False)
    # both channels play the same source, so the second one hits
    assert sys_on.encode_cache.stats.hits > 0
    assert sys_off.encode_cache is None
    assert_fleets_identical(nodes_on, nodes_off)
    report_on, report_off = (sys_on.pipeline_report(),
                             sys_off.pipeline_report())
    assert_ledgers_identical(report_on, report_off)
    # the counters themselves are reported out-of-band
    assert report_on.encode_cache_hits > 0
    assert report_off.encode_cache_hits == 0


def test_encode_batch_histogram_reported():
    system, _ = build("clean", seed=7)
    report = system.pipeline_report()
    # only real-encoder invocations are observed; cache hits are not,
    # so the histogram count equals the cache misses
    assert report.encode_batch, "origin.encode_batch never observed"
    assert report.encode_batch["count"] == report.encode_cache_misses > 0
    assert "origin batch (frames)" in report.summary()


def test_conservation_closes_on_32_channel_station():
    """The satellite gate: encode-cache counters stay out-of-band of the
    conservation bound even on a full-width origin sweep."""
    system, nodes = build("clean", seed=7, channels=32, speakers=1,
                          stream_seconds=0.5, horizon=4.0)
    report = system.pipeline_report()
    assert len(report.channels) == 32
    for ch in report.channels:
        assert ch.played > 0, f"{ch.name} played nothing"
        assert ch.conservation_residual == 0
    assert report.conservation_ok
    # 32 channels of one source: 31 of 32 encodes were cache hits
    assert report.encode_cache_hits > 0
    assert report.encode_cache_hit_rate == pytest.approx(31 / 32)
