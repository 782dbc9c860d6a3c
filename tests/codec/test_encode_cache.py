"""Encode-side cache: isolation, bounds, telemetry, and origin wiring.

The origin mirror of ``test_decode_cache.py``: one station looping or
fanning the same source must encode each raw block once, but entries can
never leak across codecs, audio parameters, or quality settings — the
wire bytes are a pure function of the full key or they must not be
shared.  RAW passthrough and synthetic-size channels bypass the cache
entirely.
"""

import numpy as np
import pytest

from repro.audio import CD_QUALITY, AudioEncoding, AudioParams, music
from repro.codec import CodecID, EncodeCache, EncodedBlock
from repro.core import EthernetSpeakerSystem
from repro.metrics.telemetry import Telemetry

PAYLOAD = b"\x5a\xa5" * 300
PARAMS_A = AudioParams(AudioEncoding.SLINEAR16, 44100, 2)
PARAMS_B = AudioParams(AudioEncoding.SLINEAR16, 22050, 2)


# -- keying & isolation -------------------------------------------------------


def test_identical_inputs_share_a_key():
    k1 = EncodeCache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_A, 10)
    k2 = EncodeCache.key_for(
        bytes(PAYLOAD), CodecID.VORBIS_LIKE, PARAMS_A, 10
    )
    assert k1 == k2


def test_codec_params_and_quality_isolate_entries():
    keys = {
        EncodeCache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_A, 10),
        EncodeCache.key_for(PAYLOAD, CodecID.MP3_LIKE, PARAMS_A, 10),
        EncodeCache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_B, 10),
        EncodeCache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_A, 3),
    }
    assert len(keys) == 4  # same bytes, four distinct entries


def test_cross_quality_entries_never_collide_in_cache():
    cache = EncodeCache(max_entries=8)
    k10 = cache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_A, 10)
    k3 = cache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_A, 3)
    cache.put(k10, EncodedBlock(wire=b"ten"))
    cache.put(k3, EncodedBlock(wire=b"three"))
    assert cache.get(k10).wire == b"ten"
    assert cache.get(k3).wire == b"three"


# -- bounds & stats -----------------------------------------------------------


def test_eviction_keeps_cache_bounded():
    cache = EncodeCache(max_entries=4)
    for i in range(10):
        key = cache.key_for(bytes([i]) * 8, CodecID.VORBIS_LIKE,
                            PARAMS_A, 10)
        cache.put(key, EncodedBlock(wire=bytes([i])))
    assert len(cache) == 4
    assert cache.stats.evictions == 6
    for i in range(6):
        key = cache.key_for(bytes([i]) * 8, CodecID.VORBIS_LIKE,
                            PARAMS_A, 10)
        assert cache.get(key) is None
    for i in range(6, 10):
        key = cache.key_for(bytes([i]) * 8, CodecID.VORBIS_LIKE,
                            PARAMS_A, 10)
        assert cache.get(key) is not None


def test_lru_recency_protects_hot_entries():
    cache = EncodeCache(max_entries=2)
    k0 = cache.key_for(b"0" * 8, CodecID.VORBIS_LIKE, PARAMS_A, 10)
    k1 = cache.key_for(b"1" * 8, CodecID.VORBIS_LIKE, PARAMS_A, 10)
    k2 = cache.key_for(b"2" * 8, CodecID.VORBIS_LIKE, PARAMS_A, 10)
    cache.put(k0, EncodedBlock(b"0"))
    cache.put(k1, EncodedBlock(b"1"))
    assert cache.get(k0) is not None       # touch k0: k1 becomes LRU
    cache.put(k2, EncodedBlock(b"2"))
    assert cache.get(k0) is not None
    assert cache.get(k1) is None


def test_stats_and_telemetry_counters_track():
    tel = Telemetry()
    cache = EncodeCache(max_entries=4, telemetry=tel, name="t")
    key = cache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_A, 10)
    assert cache.get(key) is None
    cache.put(key, EncodedBlock(b"x"))
    assert cache.get(key) is not None
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.hit_rate == 0.5
    assert tel.total("codec.encode_cache.hits") == 1
    assert tel.total("codec.encode_cache.misses") == 1


def test_invalid_bound_rejected():
    with pytest.raises(ValueError):
        EncodeCache(max_entries=0)


# -- origin wiring ------------------------------------------------------------


def test_same_source_channels_hit_the_cache():
    system = EthernetSpeakerSystem(telemetry=True)
    pcm = music(1.0, 44100, seed=7)
    for i in range(2):
        producer = system.add_producer(
            name=f"origin{i}",
            slave_path=f"/dev/vads{i}",
            master_path=f"/dev/vadm{i}",
        )
        channel = system.add_channel(f"ch{i}", params=CD_QUALITY,
                                     compress="always")
        system.add_rebroadcaster(
            producer, channel, master_path=f"/dev/vadm{i}"
        )
        system.add_speaker(channel=channel)
        system.play_pcm(producer, pcm, CD_QUALITY,
                        slave_path=f"/dev/vads{i}")
    system.run(until=4.0)
    stats = system.encode_cache.stats
    report = system.pipeline_report()
    # channel 0 encodes each block (miss), channel 1 reuses it (hit)
    assert stats.misses > 0
    assert stats.hits == stats.misses
    assert report.encode_cache_hits == stats.hits
    assert report.encode_cache_misses == stats.misses
    assert report.encode_cache_hit_rate == pytest.approx(0.5)
    assert "encode cache hits" in report.summary()
    # both channels still delivered and played everything they sent
    for ch in report.channels:
        assert ch.played > 0
    assert report.conservation_ok


def test_disabled_cache_reports_zero():
    system = EthernetSpeakerSystem(telemetry=True)
    producer = system.add_producer()
    channel = system.add_channel("hall", params=CD_QUALITY,
                                 compress="always")
    system.add_rebroadcaster(producer, channel, encode_cache=None)
    system.add_speaker(channel=channel)
    system.play_pcm(producer, music(0.5, 44100, seed=7), CD_QUALITY)
    system.run(until=3.0)
    report = system.pipeline_report()
    stats = system.encode_cache.stats
    assert stats.hits == stats.misses == 0
    assert report.encode_cache_hits == 0
    assert report.encode_cache_misses == 0
    assert "encode cache hits" not in report.summary()


def test_raw_channel_bypasses_cache():
    system = EthernetSpeakerSystem(telemetry=True)
    producer = system.add_producer()
    channel = system.add_channel("raw", params=CD_QUALITY,
                                 compress="never")
    system.add_rebroadcaster(producer, channel)
    system.add_speaker(channel=channel)
    system.play_pcm(producer, music(0.5, 44100, seed=7), CD_QUALITY)
    system.run(until=3.0)
    stats = system.encode_cache.stats
    assert stats.hits == 0 and stats.misses == 0


def test_synthetic_estimate_bypasses_cache():
    system = EthernetSpeakerSystem(telemetry=True)
    producer = system.add_producer()
    channel = system.add_channel("est", params=CD_QUALITY,
                                 compress="always")
    system.add_rebroadcaster(producer, channel, real_codec=False)
    system.add_speaker(channel=channel)
    system.play_pcm(producer, music(0.5, 44100, seed=7), CD_QUALITY)
    system.run(until=3.0)
    stats = system.encode_cache.stats
    assert stats.hits == 0 and stats.misses == 0


def test_cached_wire_bytes_identical_to_uncached():
    def run(shared_encode):
        system = EthernetSpeakerSystem(telemetry=False)
        producer = system.add_producer()
        channel = system.add_channel("hall", params=CD_QUALITY,
                                     compress="always")
        system.add_rebroadcaster(
            producer, channel,
            encode_cache=system.encode_cache if shared_encode else None,
        )
        node = system.add_speaker(channel=channel)
        pcm = music(0.4, 44100, seed=7)
        # play the same content twice so the cache actually hits
        system.play_pcm(
            producer, np.concatenate([pcm, pcm], axis=0), CD_QUALITY
        )
        system.run(until=4.0)
        return node

    on, off = run(True), run(False)
    assert on.stats.played == off.stats.played > 0
    assert len(on.sink.records) == len(off.sink.records)
    for r1, r2 in zip(on.sink.records, off.sink.records):
        assert r1[0] == r2[0]
        assert bytes(r1[1]) == bytes(r2[1])
