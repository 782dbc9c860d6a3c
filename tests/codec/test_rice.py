"""Rice entropy coding and the adaptive entropy option in VorbisLike."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio import music, segmental_snr_db
from repro.codec import VorbisLikeCodec
from repro.codec.rice import rice_decode, unzigzag, zigzag
from tests.oracles.codec import best_k, rice_encode, rice_size_bytes


def test_zigzag_round_trip():
    v = np.array([0, -1, 1, -2, 2, -1000, 1000])
    assert np.array_equal(unzigzag(zigzag(v)), v)


def test_zigzag_mapping_order():
    assert list(zigzag(np.array([0, -1, 1, -2, 2]))) == [0, 1, 2, 3, 4]


def test_rice_round_trip_basic():
    v = np.array([0, 1, -1, 5, -7, 100, -128])
    for k in (0, 2, 4, 8):
        out = rice_decode(rice_encode(v, k), k, len(v))
        assert np.array_equal(out, v)


def test_rice_size_matches_actual():
    v = np.array([3, -5, 0, 12, -1])
    for k in (0, 1, 3):
        assert rice_size_bytes(v, k) == len(rice_encode(v, k))


def test_best_k_tracks_magnitude():
    small = np.array([0, 1, -1, 0, 1])
    big = np.array([1000, -2000, 1500, -800])
    assert best_k(small) < best_k(big)


def test_peaky_data_compresses_below_fixed_width():
    """The reason Rice exists: mostly-zero data costs ~1 bit/value."""
    rng = np.random.default_rng(5)
    v = np.zeros(1000, dtype=np.int64)
    v[rng.integers(0, 1000, 30)] = rng.integers(-100, 100, 30)
    k = best_k(v)
    rice_bytes = rice_size_bytes(v, k)
    fixed_bytes = 1000 * 8 // 8  # 8-bit fixed width
    assert rice_bytes < fixed_bytes / 2


def test_truncated_stream_raises():
    v = np.array([100, 200, 300])
    data = rice_encode(v, 2)
    with pytest.raises(ValueError):
        rice_decode(data[: len(data) // 2], 2, 3)


def test_invalid_k_rejected():
    with pytest.raises(ValueError):
        rice_encode(np.array([1]), -1)
    with pytest.raises(ValueError):
        rice_encode(np.array([1]), 31)


def test_empty_input():
    assert rice_encode(np.array([], dtype=np.int64), 3) == b""
    assert len(rice_decode(b"", 3, 0)) == 0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=-(2**20), max_value=2**20), max_size=80),
    st.integers(min_value=0, max_value=12),
)
def test_property_rice_round_trip(values, k):
    v = np.array(values, dtype=np.int64)
    out = rice_decode(rice_encode(v, k), k, len(v))
    assert np.array_equal(out, v)
    assert rice_size_bytes(v, k) == len(rice_encode(v, k))


# -- integration with the codec -------------------------------------------------


def test_adaptive_entropy_never_larger_and_bit_identical():
    sig = music(1.0, 44100, seed=44)
    for q in (2, 10):
        fixed = VorbisLikeCodec(quality=q, entropy="fixed")
        adaptive = VorbisLikeCodec(quality=q, entropy="rice")
        bf = fixed.encode_block(sig)
        br = adaptive.encode_block(sig)
        assert len(br) <= len(bf)
        # reconstruction is identical: entropy coding is lossless
        assert np.allclose(fixed.decode_block(bf), adaptive.decode_block(br))


def test_decoder_handles_mixed_streams():
    """A fixed-mode decoder instance decodes rice-tagged blocks (tags are
    per band, decoders are universal)."""
    sig = music(0.5, 44100, seed=45)
    encoder = VorbisLikeCodec(quality=8, entropy="rice")
    decoder = VorbisLikeCodec(quality=8, entropy="fixed")
    out = decoder.decode_block(encoder.encode_block(sig))
    assert segmental_snr_db(sig, out[:, 0]) > 30


def test_invalid_entropy_rejected():
    with pytest.raises(ValueError):
        VorbisLikeCodec(entropy="huffman")
