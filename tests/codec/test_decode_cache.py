"""Shared-decode cache: isolation, bounds, and end-to-end reconciliation.

The cache exists so N speakers on one channel decode each multicast block
once — but it must never let entries leak across channels with different
codecs or audio parameters, must stay bounded, and its hit/miss accounting
must reconcile with what :meth:`EthernetSpeakerSystem.pipeline_report`
itemises.  Crucially, enabling it must not change a single played byte.
"""

import numpy as np
import pytest

from repro.audio import CD_QUALITY, AudioEncoding, AudioParams, music
from repro.codec import CodecID, DecodeCache, DecodedBlock
from repro.core import EthernetSpeakerSystem
from repro.metrics.telemetry import Telemetry

PAYLOAD = b"\x5a\xa5" * 300
PARAMS_A = AudioParams(AudioEncoding.SLINEAR16, 44100, 2)
PARAMS_B = AudioParams(AudioEncoding.SLINEAR16, 22050, 2)


# -- keying & isolation -------------------------------------------------------


def test_identical_inputs_share_a_key():
    k1 = DecodeCache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_A)
    k2 = DecodeCache.key_for(bytes(PAYLOAD), CodecID.VORBIS_LIKE, PARAMS_A)
    assert k1 == k2


def test_memoryview_payload_keys_like_bytes():
    # the zero-copy parser hands the speaker a memoryview payload; it must
    # land on the same entry as the producer-side bytes
    k1 = DecodeCache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_A)
    k2 = DecodeCache.key_for(
        memoryview(PAYLOAD), CodecID.VORBIS_LIKE, PARAMS_A
    )
    assert k1 == k2


def test_codec_and_params_isolate_entries():
    keys = {
        DecodeCache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_A),
        DecodeCache.key_for(PAYLOAD, CodecID.MP3_LIKE, PARAMS_A),
        DecodeCache.key_for(PAYLOAD, CodecID.ADPCM, PARAMS_A),
        DecodeCache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_B),
    }
    assert len(keys) == 4  # same bytes, four distinct entries


def test_cross_channel_entries_never_collide_in_cache():
    cache = DecodeCache(max_entries=8)
    ka = cache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_A)
    kb = cache.key_for(PAYLOAD, CodecID.VORBIS_LIKE, PARAMS_B)
    cache.put(ka, DecodedBlock(pcm=b"A" * 4, rms=0.5))
    cache.put(kb, DecodedBlock(pcm=b"B" * 4, rms=0.25))
    assert cache.get(ka).pcm == b"A" * 4
    assert cache.get(kb).pcm == b"B" * 4


# -- bounds & stats -----------------------------------------------------------


def test_eviction_keeps_cache_bounded():
    cache = DecodeCache(max_entries=4)
    for i in range(10):
        key = cache.key_for(bytes([i]) * 8, CodecID.RAW, PARAMS_A)
        cache.put(key, DecodedBlock(pcm=bytes([i]), rms=None))
    assert len(cache) == 4
    assert cache.stats.evictions == 6
    # the four most recent survive, the oldest six are gone
    for i in range(6):
        key = cache.key_for(bytes([i]) * 8, CodecID.RAW, PARAMS_A)
        assert cache.get(key) is None
    for i in range(6, 10):
        key = cache.key_for(bytes([i]) * 8, CodecID.RAW, PARAMS_A)
        assert cache.get(key) is not None


def test_lru_recency_protects_hot_entries():
    cache = DecodeCache(max_entries=2)
    k0 = cache.key_for(b"0" * 8, CodecID.RAW, PARAMS_A)
    k1 = cache.key_for(b"1" * 8, CodecID.RAW, PARAMS_A)
    k2 = cache.key_for(b"2" * 8, CodecID.RAW, PARAMS_A)
    cache.put(k0, DecodedBlock(b"0", None))
    cache.put(k1, DecodedBlock(b"1", None))
    assert cache.get(k0) is not None       # touch k0: k1 becomes LRU
    cache.put(k2, DecodedBlock(b"2", None))
    assert cache.get(k0) is not None
    assert cache.get(k1) is None


def test_stats_and_telemetry_counters_track():
    tel = Telemetry()
    cache = DecodeCache(max_entries=4, telemetry=tel, name="t")
    key = cache.key_for(PAYLOAD, CodecID.RAW, PARAMS_A)
    assert cache.get(key) is None
    cache.put(key, DecodedBlock(b"x", None))
    assert cache.get(key) is not None
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.hit_rate == 0.5
    assert tel.total("codec.cache.hits") == 1
    assert tel.total("codec.cache.misses") == 1


def test_invalid_bound_rejected():
    with pytest.raises(ValueError):
        DecodeCache(max_entries=0)


# -- end-to-end: reconciliation and bit-identical playout ---------------------


def _run_fanout(shared_decode, speakers=4, telemetry=True):
    """``shared_decode=False`` builds every speaker with the per-node
    ``decode_cache=None`` opt-out: each decodes every block itself."""
    system = EthernetSpeakerSystem(telemetry=telemetry)
    producer = system.add_producer()
    channel = system.add_channel("hall", params=CD_QUALITY,
                                 compress="always")
    system.add_rebroadcaster(producer, channel)
    node_kwargs = {} if shared_decode else {"decode_cache": None}
    nodes = [system.add_speaker(channel=channel, **node_kwargs)
             for _ in range(speakers)]
    system.play_pcm(producer, music(1.0, 44100, seed=7), CD_QUALITY)
    system.run(until=4.0)
    return system, nodes


def test_hit_rate_reconciles_in_pipeline_report():
    system, nodes = _run_fanout(shared_decode=True)
    report = system.pipeline_report()
    stats = system.decode_cache.stats
    played = sum(n.stats.played for n in nodes)
    assert played > 0
    assert report.stats["decode_cache"] == stats
    # four unity-gain speakers on one channel: each block decodes once
    # and hits three times, so hits + misses == decoded blocks and the
    # hit rate approaches (N-1)/N
    assert stats.misses > 0
    assert stats.hits == stats.misses * (len(nodes) - 1)
    assert report.stats["decode_cache"].hit_rate == pytest.approx(0.75)
    # the itemisation reaches the human-readable summary too
    assert "decode_cache.hits" in report.summary()


def test_disabled_cache_reports_zero():
    system, _ = _run_fanout(shared_decode=False)
    report = system.pipeline_report()
    stats = system.decode_cache.stats
    assert stats.hits == stats.misses == 0
    assert report.stats["decode_cache"] == stats
    assert "decode_cache.hits" not in report.summary()


def test_shared_decode_playout_is_bit_identical():
    _, nodes_on = _run_fanout(shared_decode=True, telemetry=False)
    _, nodes_off = _run_fanout(shared_decode=False, telemetry=False)
    for on, off in zip(nodes_on, nodes_off):
        assert on.stats.played == off.stats.played
        assert len(on.sink.records) == len(off.sink.records)
        for (t1, d1, s1, p1), (t2, d2, s2, p2) in zip(
            on.sink.records, off.sink.records
        ):
            assert t1 == t2
            assert bytes(d1) == bytes(d2)
            assert s1 == s2 and p1 == p2


def test_gain_adjusted_speaker_bypasses_cache():
    system = EthernetSpeakerSystem(telemetry=True)
    producer = system.add_producer()
    channel = system.add_channel("hall", params=CD_QUALITY,
                                 compress="always")
    system.add_rebroadcaster(producer, channel)
    loud = system.add_speaker(channel=channel)
    quiet = system.add_speaker(channel=channel)
    quiet.speaker.gain = 0.5
    system.play_pcm(producer, music(0.5, 44100, seed=7), CD_QUALITY)
    system.run(until=3.0)
    stats = system.decode_cache.stats
    # only the unity-gain speaker touches the cache: every lookup misses
    # (nobody shares its blocks) and the gain-adjusted one stays private
    assert loud.stats.played > 0 and quiet.stats.played > 0
    assert stats.misses > 0
    assert stats.hits == 0
    loud_rms = loud.speaker.last_output_rms
    quiet_rms = quiet.speaker.last_output_rms
    assert quiet_rms == pytest.approx(loud_rms * 0.5, rel=0.05)
