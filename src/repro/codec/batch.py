"""Whole-block band coding: every frame × band of a block in one pass.

The scalar transform codecs (:mod:`repro.codec.vorbislike`,
:mod:`repro.codec.mp3like`) loop over frames and bands in Python,
quantising and packing each band slice on its own.  At station scale —
tens of channels encoding concurrently on one origin machine — those
loops are the dominant host cost.  This module is the batched engine
both codecs share, and it does no per-bit work on the fixed-width path:

* :func:`encode_bands_batched` quantises all frames × bands of a block
  as 2-D numpy ops, then writes the whole body as **one stream of
  (value, width) tokens**: per part a header token (16 bits of
  ``width<<8 | exponent`` when active, 8 zero bits when not), the
  coefficients in offset binary at the band's width, and a pad token
  that byte-aligns the part.  One ``np.insert`` interleaves the part
  tokens with the coefficients, one ``np.unpackbits`` expands every
  token to a 16-bit row, one gather keeps each token's low ``width``
  bits, and one ``np.packbits`` emits the wire bytes.
* :func:`decode_bands_batched` walks only the band *descriptors* in
  Python (a few dozen tag bytes per frame), then reads every fixed-width
  field of the block at once from a 24-bit big-endian window of the
  payload, ``b[i]<<16 | b[i+1]<<8 | b[i+2]`` at ``i = bitpos >> 3`` —
  exact for widths up to 16.  Rice bands go through the vectorised
  :func:`~repro.codec.rice.rice_decode`.

Everything that depends only on the band edges and the frame count —
the bin → band map, insert positions, part start bins — is computed
once per ``(edges, n_frames)`` and cached.

Wire bytes and decoded samples are **bit-identical** to the scalar
reference coders — that is the contract ``tests/codec/
test_batch_differential.py`` pins, and why the quantiser reproduces the
reference arithmetic operation by operation (``np.ldexp`` powers of two,
the same ``ceil``/``log2`` elementwise ufuncs, integer-exact size sums).

Malformed streams are the reference walker's job: anything structurally
anomalous (width > 16, truncated descriptors, oversized Rice payloads)
raises :class:`BatchFallback` so the caller can re-run the scalar path
and reproduce its exact error — corrupt-packet behaviour under the
seeded fault matrices must not change by a single counter.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.codec import rice


class BatchFallback(Exception):
    """The batched kernel cannot reproduce the scalar semantics for this
    input; the caller must re-run the per-band reference path."""


class _Layout(NamedTuple):
    """Index arrays fixed by the band edges and the frame count."""

    n_bins: int
    count_list: tuple      # bins per band, as Python ints
    counts: np.ndarray     # bins per band
    starts: np.ndarray     # first bin of each band
    band_of: np.ndarray    # band of each bin
    inserts: np.ndarray    # token-stream slots: every pad, every header
    row_end: np.ndarray    # 16 * (token index + 1): end of its bit row
    part_first: np.ndarray  # flat (frame, bin) index of a part's first bin
    part_count: np.ndarray  # bins in each part
    within: np.ndarray     # each flat (frame, bin)'s index in its band


@lru_cache(maxsize=32)
def _layout(edges: tuple, n_frames: int) -> _Layout:
    edges_a = np.array(edges, dtype=np.int64)
    counts = np.diff(edges_a)
    n_bins = int(edges_a[-1])
    band_of = np.repeat(np.arange(len(counts)), counts)
    frame0 = (np.arange(n_frames, dtype=np.int64) * n_bins)[:, None]
    part_first = (frame0 + edges_a[:-1]).reshape(-1)
    # every pad goes after its part's last coefficient, every header
    # before its first; np.insert keeps equal positions in the order
    # given, so listing the pads first puts each pad before the next
    # part's header
    inserts = np.concatenate([(frame0 + edges_a[1:]).reshape(-1), part_first])
    n_tokens = n_frames * n_bins + len(inserts)
    layout = _Layout(
        n_bins=n_bins,
        count_list=tuple(counts.tolist()),
        counts=counts,
        starts=edges_a[:-1],
        band_of=band_of,
        inserts=inserts,
        row_end=16 * np.arange(1, n_tokens + 1, dtype=np.int64),
        part_first=part_first,
        part_count=np.tile(counts, n_frames),
        within=np.tile(np.arange(n_bins) - np.repeat(edges_a[:-1], counts),
                       n_frames),
    )
    for arr in layout[2:]:
        arr.flags.writeable = False  # shared by every call
    return layout


def _edges_key(edges) -> tuple:
    return tuple(np.asarray(edges).tolist())


def encode_bands_batched(
    coeffs: np.ndarray,
    edges: np.ndarray,
    widths: np.ndarray,
    *,
    min_width: int = 1,
    use_rice: bool = False,
) -> bytes:
    """Encode all frames of a block, byte-identical to the scalar coders.

    Parameters
    ----------
    coeffs:
        ``(frames, n_bins)`` float64 transform coefficients.
    edges:
        band boundaries; band *b* covers ``edges[b]:edges[b+1]``.
    widths:
        ``(frames, n_bands)`` quantiser widths (bits per coefficient).
    min_width:
        bands below this width are inactive (``b"\\x00"`` parts): 1 for
        the VorbisLike allocator (which never emits width 1), 2 for the
        Mp3Like ladder.
    use_rice:
        offer each active band the adaptive Rice option, exactly like
        ``entropy="rice"``.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n_frames, n_bins = coeffs.shape
    if n_frames == 0:
        return b""
    if not np.isfinite(coeffs).all():
        # the scalar path raises converting inf/nan exponents to int;
        # let it, with its exact exception
        raise BatchFallback("non-finite coefficients")
    widths = np.asarray(widths, dtype=np.int64)
    if widths.max() > 16:
        # a token is one 16-bit row; the scalar packer rejects these
        raise BatchFallback("fixed width out of range")
    lay = _layout(_edges_key(edges), n_frames)
    band_of = lay.band_of
    counts = lay.counts

    amax = np.maximum.reduceat(np.abs(coeffs), lay.starts, axis=-1)
    active = (widths >= min_width) & (amax > 0.0)

    top = (1 << (np.maximum(widths, 1) - 1)) - 1
    # exponent = ceil(log2(amax / top)), clipped — elementwise ufuncs,
    # identical to the per-band scalar expression (log2 of inactive
    # bands' garbage is clipped away and masked to 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        exponent = np.ceil(np.log2(amax / top))
    exponent = np.where(
        active, np.minimum(np.maximum(exponent, -120.0), 120.0), 0.0
    )
    exponent = exponent.astype(np.int64)
    # 2.0 ** e as an exact power of two (ldexp by definition; the scalar
    # path's float pow is exact over |e| <= 120 as well)
    step = np.ldexp(1.0, exponent)

    step_e, lo_e, hi_e = np.repeat(
        np.array([step, -1.0 - top, top]), counts, axis=2
    )
    # integer-valued floats; rint is np.round at 0 decimals, and here
    # maximum/minimum is np.clip without its dispatch overhead
    q = np.minimum(np.maximum(np.rint(coeffs / step_e), lo_e), hi_e)

    if use_rice:
        fixed_bytes = (widths * counts + 7) // 8
        u = rice.zigzag(q.astype(np.int64))
        uf = u.astype(np.float64)  # values < 2**17: conversion is exact
        usums = np.add.reduceat(uf, lay.starts, axis=-1)
        means = usums / counts
        with np.errstate(divide="ignore"):
            k = np.floor(np.log2(means + 1.0))
        k = np.where(means < 1.0, 0, np.clip(k, 0, 30)).astype(np.int64)
        k_e = np.repeat(k, counts, axis=1)
        elem_bits = (u >> k_e.astype(np.uint64)).astype(np.int64) + 1 + k_e
        band_bits = np.add.reduceat(elem_bits, lay.starts, axis=-1)
        rice_bytes = (band_bits + 7) // 8
        choose_rice = active & (rice_bytes + 2 < fixed_bytes)
        if choose_rice.any() and int(rice_bytes[choose_rice].max()) > 0xFFFF:
            raise BatchFallback("rice payload exceeds u16 length field")
        any_rice = bool(choose_rice.any())
    else:
        any_rice = False

    # -- the token stream: value in the low 16 bits, width above them ------
    fixed = active & ~choose_rice if any_rice else active
    w_fixed = np.where(fixed, widths, 0)
    tag = np.where(choose_rice, 0x80 | k, widths) if any_rice else widths
    head = np.where(active, (tag << 8) | (exponent & 0xFF) | (16 << 16),
                    8 << 16)
    pad = (-counts * w_fixed) % 8
    if any_rice:
        # placeholder for the Rice length field and payload, filled below
        pad = np.where(choose_rice, 16 + 8 * rice_bytes, pad)
    parts = np.concatenate([(pad << 16).reshape(-1), head.reshape(-1)])
    # offset binary: q + 2**(w-1), where top + 1 == 2**(w-1); every sum
    # is an integer below 2**21, exact in float64
    coef = (
        q + np.repeat(top + 1 + (w_fixed << 16), counts, axis=1)
    ).astype(np.int64)
    tokens = np.insert(coef.reshape(-1), lay.inserts, parts)
    width = tokens >> 16
    rows = np.unpackbits(tokens.astype(">u2").view(np.uint8))
    ends = np.cumsum(width)
    # stream bit j of a token ending at stream bit `end` is row bit
    # j + row_end - end: the token's low `width` bits, MSB first
    pick = np.arange(ends[-1]) + np.repeat(lay.row_end - ends, width)
    if any_rice:
        # a Rice placeholder is wider than its row: read one zero bit
        rows = np.append(rows, np.uint8(0))
        pick[np.repeat(width > 16, width)] = len(rows) - 1
    stream = rows[pick]

    if not any_rice:
        return np.packbits(stream).tobytes()

    # -- Rice bands: unary quotient + k-bit remainder -----------------------
    sizes = np.where(fixed, 2 + fixed_bytes,
                     np.where(choose_rice, 4 + rice_bytes, 1))
    flat_sizes = sizes.reshape(-1)
    part_starts = np.concatenate(
        [[0], np.cumsum(flat_sizes)[:-1]]
    ).reshape(n_frames, -1)
    rice_e = choose_rice[:, band_of].reshape(-1)
    u_sel = u.reshape(-1)[rice_e]
    k_sel = k_e.reshape(-1)[rice_e]
    qq = (u_sel >> k_sel.astype(np.uint64)).astype(np.int64)
    lengths = qq + 1 + k_sel
    # exclusive cumsum of bit lengths, restarted per band
    grp = (
        np.arange(n_frames)[:, None] * len(counts) + band_of[None, :]
    ).reshape(-1)[rice_e]
    ex = np.cumsum(lengths) - lengths
    first = np.empty(len(grp), dtype=bool)
    first[0] = True
    first[1:] = grp[1:] != grp[:-1]
    ex = ex - ex[first][np.cumsum(first) - 1]
    elem_start = (part_starts[:, band_of].reshape(-1)[rice_e] + 4) * 8 + ex
    stream[elem_start + qq] = 1
    for j in range(int(k_sel.max())):
        sel = k_sel > j
        ones = (
            u_sel[sel] >> (k_sel[sel] - 1 - j).astype(np.uint64)
        ) & np.uint64(1)
        pos = elem_start[sel] + qq[sel] + 1 + j
        stream[pos[ones == np.uint64(1)]] = 1
    out = np.packbits(stream)
    ps = part_starts[choose_rice]
    nb = rice_bytes[choose_rice]
    out[ps + 2] = nb & 0xFF
    out[ps + 3] = nb >> 8
    return out.tobytes()


def _read_fields(buf: np.ndarray, bitpos: np.ndarray, width: np.ndarray):
    """The ``width``-bit big-endian fields starting at bit ``bitpos``.

    ``buf`` is the byte buffer as int64 with two zero bytes appended.
    Each field is cut from the 24-bit window at its first byte, which
    holds it whole for ``width <= 16`` at any bit offset 0..7.
    """
    win = (buf[:-2] << 16) | (buf[1:-1] << 8) | buf[2:]
    shift = 24 - (bitpos & 7) - width
    return (win[bitpos >> 3] >> shift) & ((1 << width) - 1)


def decode_bands_batched(
    data: bytes,
    offset: int,
    n_frames: int,
    edges: np.ndarray,
    *,
    rice_tags: bool = True,
) -> tuple:
    """Decode ``n_frames`` frames of band parts starting at ``offset``.

    ``data`` may be any byte buffer (``bytes``, ``memoryview``).
    Returns ``(values, end_offset)`` with ``values`` of shape
    ``(n_frames, n_bins)``; inactive bands stay zero.  Structural
    anomalies — the situations where the scalar walker's *error* is the
    contract — raise :class:`BatchFallback`.  Rice-band payloads go
    through :func:`repro.codec.rice.rice_decode`, which reproduces the
    walker's truncation semantics itself.
    """
    lay = _layout(_edges_key(edges), n_frames)
    end = len(data)

    # payload byte offset of every fixed-width part, 0 for the others (a
    # payload follows its two descriptor bytes, so 0 is never one)
    fixed_at = [0] * len(lay.part_count)
    rice_parts: list = []
    for part, count in enumerate(lay.count_list * n_frames):
        if offset >= end:
            raise BatchFallback("descriptor past end of data")
        tag = data[offset]
        if tag == 0:
            offset += 1
            continue
        offset += 2  # the tag and exponent bytes
        if offset > end:
            raise BatchFallback("descriptor past end of data")
        if rice_tags and tag & 0x80:
            exp = data[offset - 1]
            if exp > 127:
                exp -= 256
            if offset + 2 > end:
                raise BatchFallback("descriptor past end of data")
            nbytes = data[offset] | (data[offset + 1] << 8)
            offset += 2
            rice_parts.append(
                (part, exp, tag & 0x7F, data[offset : offset + nbytes], count)
            )
        else:
            if tag > 16:
                raise BatchFallback("fixed width out of range")
            nbytes = (tag * count + 7) >> 3
            if offset + nbytes > end:
                raise BatchFallback("fixed payload truncated")
            fixed_at[part] = offset
        offset += nbytes

    if any(fixed_at):
        # the payload plus two zero bytes: every 3-byte window is in
        # bounds, and indices -2/-1 (parts that are not fixed) read zeros
        buf = np.zeros(end + 2, dtype=np.int64)
        buf[:end] = np.frombuffer(data, dtype=np.uint8)
        at = np.array(fixed_at, dtype=np.int64)
        # per part: width, int8 exponent, first payload bit — all 0 when
        # the part is not fixed-width — expanded to every bin
        w, exp, bit0 = np.repeat(
            np.array([buf[at - 2], (buf[at - 1] ^ 0x80) - 0x80, at * 8]),
            lay.part_count,
            axis=1,
        )
        field = _read_fields(buf, bit0 + lay.within * w, w)
        # offset binary back to signed, times 2**exp; 0.0 where w == 0
        values = (field - ((1 << w) >> 1)) * np.ldexp(1.0, exp)
    else:
        values = np.zeros(len(lay.within))

    for part, exp, kk, payload, count in rice_parts:
        first = int(lay.part_first[part])
        q = rice.rice_decode(payload, kk, count)
        values[first : first + count] = q * (2.0**exp)
    return values.reshape(n_frames, lay.n_bins), offset
