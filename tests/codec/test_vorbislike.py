"""VorbisLike codec: fidelity, compression, quality index semantics (§2.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio import (
    AudioEncoding,
    AudioParams,
    music,
    segmental_snr_db,
    silence,
    sine,
    snr_db,
)
from repro.codec import CodecID, VorbisLikeCodec, get_codec
from repro.codec.vorbislike import _HEADER, _model


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


def test_frame_size_above_4096_is_rejected():
    with pytest.raises(ValueError, match="at most 4096"):
        VorbisLikeCodec(frame_size=8192)


_FIELDS = ("codec", "quality", "channels", "log2n", "samples", "frames")


def _with_header(blob: bytes, **fields) -> bytes:
    header = dict(zip(_FIELDS, _HEADER.unpack_from(blob)))
    header.update(fields)
    return _HEADER.pack(*header.values()) + blob[_HEADER.size:]


def _frame_size(header, log2n):
    """A frame size, with the frame count that frame size gives."""
    return dict(log2n=log2n, frames=-(-header["samples"] >> log2n) + 1)


#: header fields a corrupted byte can set, each from the intact header
#: ``h`` and the payload length; every one must fail in ``_parse``
CORRUPT_HEADERS = {
    "log2n below 6": lambda h, size: _frame_size(h, 5),
    "log2n above 12": lambda h, size: _frame_size(h, 13),
    "log2n 18": lambda h, size: _frame_size(h, 18),
    "log2n 24": lambda h, size: _frame_size(h, 24),
    "one frame more": lambda h, size: dict(frames=h["frames"] + 1),
    "one frame fewer": lambda h, size: dict(frames=h["frames"] - 1),
    "5000 frames": lambda h, size: dict(frames=5000),
    "one frame more of samples": lambda h, size: dict(
        samples=h["samples"] + 512),
    "more frames than bytes": lambda h, size: dict(
        samples=512 * size, frames=size + 1),
    "255 channels": lambda h, size: dict(channels=255),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_HEADERS))
def test_corrupt_header_fails_before_anything_is_sized(clip, case):
    """A corrupted header raises in ``_parse``, before a psychoacoustic
    model is built or even looked up: decode takes the speaker's
    ``decode_failed`` path with the model cache untouched."""
    codec = VorbisLikeCodec(quality=0, sample_rate=44100)
    blob = codec.encode_block(clip[:1536])
    header = dict(zip(_FIELDS, _HEADER.unpack_from(blob)))
    fields = CORRUPT_HEADERS[case](header, len(blob))
    bad = _with_header(blob, **fields)
    channels = fields.get("channels", header["channels"])
    frames = fields.get("frames", header["frames"])
    if case == "255 channels":
        assert channels * frames > len(bad)
    before = _model.cache_info()
    for params in (None, AudioParams(AudioEncoding.SLINEAR16, 44100, 1)):
        with pytest.raises(ValueError, match="vorbislike"):
            codec.decode_block(bad, params)
    assert _model.cache_info() == before
    # the intact block still decodes
    assert codec.decode_block(blob).shape == (1536, 1)
