"""VorbisLike codec: fidelity, compression, quality index semantics (§2.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio import music, segmental_snr_db, silence, sine, snr_db
from repro.codec import CodecID, VorbisLikeCodec, get_codec


@pytest.fixture(scope="module")
def clip():
    return music(1.5, 44100, seed=7)


def test_round_trip_shape_and_range(clip):
    codec = VorbisLikeCodec(quality=8)
    out = codec.decode_block(codec.encode_block(clip))
    assert out.shape == (len(clip), 1)
    assert np.max(np.abs(out)) <= 1.0


def test_max_quality_is_near_transparent(clip):
    """§2.2: at the maximum quality index 'our experience so far has not
    revealed any audible defects'.  We require >= 35 dB segmental SNR."""
    codec = VorbisLikeCodec(quality=10)
    out = codec.decode_block(codec.encode_block(clip))
    assert segmental_snr_db(clip, out[:, 0]) > 35.0


def test_max_quality_still_compresses(clip):
    """...'while still providing adequate compression': at least 2:1."""
    codec = VorbisLikeCodec(quality=10)
    blob = codec.encode_block(clip)
    assert len(blob) < len(clip) * 2 / 2.0


def test_snr_monotone_in_quality(clip):
    snrs = []
    for q in (0, 3, 6, 10):
        codec = VorbisLikeCodec(quality=q)
        out = codec.decode_block(codec.encode_block(clip))
        snrs.append(snr_db(clip, out[:, 0]))
    assert all(b > a for a, b in zip(snrs, snrs[1:]))


def test_size_monotone_in_quality(clip):
    sizes = [
        len(VorbisLikeCodec(quality=q).encode_block(clip))
        for q in (0, 3, 6, 10)
    ]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_low_quality_compresses_hard(clip):
    blob = VorbisLikeCodec(quality=0).encode_block(clip)
    assert len(blob) < len(clip) * 2 * 0.2  # >5:1 vs 16-bit PCM


def test_stereo_round_trip():
    left = sine(440, 0.5, 44100, amplitude=0.6)
    right = sine(550, 0.5, 44100, amplitude=0.6)
    x = np.stack([left, right], axis=1)
    codec = VorbisLikeCodec(quality=10)
    out = codec.decode_block(codec.encode_block(x))
    assert out.shape == x.shape
    assert snr_db(left, out[:, 0]) > 25
    assert snr_db(right, out[:, 1]) > 25


def test_mid_side_exploits_correlation():
    """Identical channels should compress much better than independent."""
    mono = music(1.0, 44100, seed=8)
    correlated = np.stack([mono, mono], axis=1)
    uncorrelated = np.stack([mono, music(1.0, 44100, seed=9)], axis=1)
    codec = VorbisLikeCodec(quality=8)
    assert len(codec.encode_block(correlated)) < 0.8 * len(
        codec.encode_block(uncorrelated)
    )


def test_silence_compresses_to_almost_nothing():
    codec = VorbisLikeCodec(quality=10)
    blob = codec.encode_block(silence(1.0, 44100))
    # floor is one presence byte per band per frame: > 35:1 here
    assert len(blob) < 44100 * 2 * 0.03


def test_blocks_decode_independently(clip):
    """Cutting a stream into blocks and decoding each alone reproduces the
    stream — the property that lets a speaker tune in mid-transmission."""
    codec = VorbisLikeCodec(quality=10)
    step = 4410
    pieces = [
        codec.decode_block(codec.encode_block(clip[pos : pos + step]))[:, 0]
        for pos in range(0, len(clip), step)
    ]
    joined = np.concatenate(pieces)
    assert len(joined) == len(clip)
    assert snr_db(clip, joined) > 20


def test_registry_round_trip(clip):
    codec = get_codec(CodecID.VORBIS_LIKE, quality=5)
    assert isinstance(codec, VorbisLikeCodec)
    out = codec.decode_block(codec.encode_block(clip))
    assert len(out) == len(clip)


def test_decoder_checks_codec_id(clip):
    codec = VorbisLikeCodec()
    with pytest.raises(ValueError):
        codec.decode_block(b"\x63" + b"\x00" * 50)


def test_invalid_construction():
    with pytest.raises(ValueError):
        VorbisLikeCodec(quality=11)
    with pytest.raises(ValueError):
        VorbisLikeCodec(frame_size=500)  # not a power of two
    with pytest.raises(ValueError):
        VorbisLikeCodec().encode_block(np.zeros((10, 3)))


def test_tiny_blocks_round_trip():
    codec = VorbisLikeCodec(quality=10)
    for n in (1, 7, 100):
        x = sine(440, n / 44100, 44100)
        out = codec.decode_block(codec.encode_block(x))
        assert out.shape == (len(x), 1)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=10, max_value=3000),
    st.integers(min_value=0, max_value=2**31),
)
def test_property_decode_inverts_encode_length(quality, length, seed):
    """Any content, any quality: decode returns exactly the encoded
    sample count with bounded amplitude."""
    x = np.random.default_rng(seed).uniform(-1, 1, length)
    codec = VorbisLikeCodec(quality=quality)
    out = codec.decode_block(codec.encode_block(x))
    assert out.shape == (length, 1)
    assert np.max(np.abs(out)) <= 1.0


@pytest.mark.parametrize("frame_size", [32, 100, 513])
def test_bad_frame_size_error_names_the_value(frame_size):
    with pytest.raises(ValueError,
                       match=f"power of two >= 64: {frame_size}$"):
        VorbisLikeCodec(frame_size=frame_size)
