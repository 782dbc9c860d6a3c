"""Vectorised fixed-width integer bit packing.

The fixed-width band format packs each band's quantised coefficients
at a per-band integer width, back to back, big-endian.  These packers
are what the scalar band walks in :mod:`tests.oracles.codec` call; the
runtime kernels in :mod:`repro.codec.batch` write and read the same
bits without them.
"""

from __future__ import annotations

import numpy as np


def pack_uint(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned ints < 2**width into a big-endian bitstream.

    The result is padded with zero bits to a whole byte.
    """
    if width < 1 or width > 16:
        raise ValueError(f"width out of range: {width}")
    vals = np.asarray(values, dtype=np.uint32)
    if vals.size == 0:
        return b""
    if vals.max(initial=0) >= (1 << width):
        raise ValueError(f"value does not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    bits = ((vals[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(-1)).tobytes()


def unpack_uint(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_uint`; returns ``count`` unsigned ints."""
    if width < 1 or width > 16:
        raise ValueError(f"width out of range: {width}")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    needed_bits = width * count
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if len(bits) < needed_bits:
        raise ValueError(
            f"bitstream too short: have {len(bits)} bits, need {needed_bits}"
        )
    bits = bits[:needed_bits].reshape(count, width).astype(np.int64)
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    return bits @ weights


def packed_size(width: int, count: int) -> int:
    """Bytes produced by ``pack_uint`` for ``count`` values of ``width``."""
    return (width * count + 7) // 8


def pack_int(values: np.ndarray, width: int) -> bytes:
    """Pack signed ints in [-2**(w-1), 2**(w-1)) via offset binary."""
    vals = np.asarray(values, dtype=np.int64)
    offset = 1 << (width - 1)
    if vals.size and (vals.min() < -offset or vals.max() >= offset):
        raise ValueError(f"signed value does not fit in {width} bits")
    return pack_uint((vals + offset).astype(np.uint32), width)


def unpack_int(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_int`."""
    offset = 1 << (width - 1)
    return unpack_uint(data, width, count) - offset
