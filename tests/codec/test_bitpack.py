"""The oracle's fixed-width bit packer (`tests/oracles/bitpack.py`): round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles import bitpack


def test_pack_unpack_uint_basic():
    vals = np.array([0, 1, 5, 7])
    data = bitpack.pack_uint(vals, 3)
    assert len(data) == 2  # 12 bits -> 2 bytes
    out = bitpack.unpack_uint(data, 3, 4)
    assert np.array_equal(out, vals)


def test_pack_int_round_trip():
    vals = np.array([-4, -1, 0, 3])
    out = bitpack.unpack_int(bitpack.pack_int(vals, 3), 3, 4)
    assert np.array_equal(out, vals)


def test_packed_size_matches():
    vals = np.arange(100) % 16
    data = bitpack.pack_uint(vals, 4)
    assert len(data) == bitpack.packed_size(4, 100) == 50


def test_value_too_large_rejected():
    with pytest.raises(ValueError):
        bitpack.pack_uint(np.array([8]), 3)
    with pytest.raises(ValueError):
        bitpack.pack_int(np.array([4]), 3)
    with pytest.raises(ValueError):
        bitpack.pack_int(np.array([-5]), 3)


def test_bad_width_rejected():
    for width in (0, 17):
        with pytest.raises(ValueError):
            bitpack.pack_uint(np.array([0]), width)
        with pytest.raises(ValueError):
            bitpack.unpack_uint(b"\x00\x00\x00", width, 1)


def test_short_bitstream_rejected():
    with pytest.raises(ValueError):
        bitpack.unpack_uint(b"\x00", 8, 5)


def test_empty_values():
    assert bitpack.pack_uint(np.array([]), 5) == b""
    assert len(bitpack.unpack_uint(b"", 5, 0)) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.lists(st.integers(min_value=0, max_value=2**16 - 1), max_size=64),
)
def test_property_uint_round_trip(width, values):
    vals = np.array([v % (1 << width) for v in values], dtype=np.uint32)
    data = bitpack.pack_uint(vals, width)
    assert len(data) == bitpack.packed_size(width, len(vals))
    out = bitpack.unpack_uint(data, width, len(vals))
    assert np.array_equal(out, vals)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=16),
    st.lists(st.integers(min_value=-(2**15), max_value=2**15 - 1), max_size=64),
)
def test_property_int_round_trip(width, values):
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    vals = np.clip(np.array(values, dtype=np.int64), lo, hi) if values else np.array([], dtype=np.int64)
    out = bitpack.unpack_int(bitpack.pack_int(vals, width), width, len(vals))
    assert np.array_equal(out, vals)
