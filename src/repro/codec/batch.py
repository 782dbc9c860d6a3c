"""Whole-block band coding: every frame × band of a block in one pass.

This module, with :func:`repro.codec.rice.rice_decode`, is the one
implementation of the band wire format that both transform codecs
(:mod:`repro.codec.vorbislike`, :mod:`repro.codec.mp3like`) run.  At
station scale — tens of channels encoding concurrently on one origin
machine — per-frame, per-band Python loops would be the dominant host
cost, so it does no per-bit work on the fixed-width path.  The frames
need not come from one block: the codecs stack every frame of a group
of blocks into one call (see :mod:`repro.codec.queue`), and because
every part is byte-aligned each block's body is a slice of the output.

* :func:`encode_bands_batched` quantises all frames × bands as 2-D numpy
  ops.  A part is a tag byte and an exponent byte when active (one zero
  byte when not), then its coefficients in offset binary at the band's
  width, padded to a byte.  The part sizes give every part's byte
  offset, and so every field's bit offset.  The **byte packer** writes
  the fields: a field of up to 16 bits at bit 0..15 of a big-endian
  16-bit cell lies in the 32-bit window of that cell and the next, and
  two ``np.bincount`` calls add each window's two cells into the output
  — fields never share a bit, so the sum is their OR.  Inactive bands'
  fields are zero-width zeros and add nothing.
* :func:`decode_bands_batched` walks only the band *descriptors* in
  Python (a few dozen tag bytes per frame), then reads every fixed-width
  field at once from a 24-bit big-endian window of the payload,
  ``b[i]<<16 | b[i+1]<<8 | b[i+2]`` at ``i = bitpos >> 3`` — exact for
  widths up to 16.  :func:`walk_bands` and :func:`read_bands` are its
  two halves, so a group's payloads are walked one by one and read in
  one call.  Rice bands go through the vectorised
  :func:`~repro.codec.rice.rice_decode`.

Everything that depends only on the band edges and the frame count —
the bin → band map, part start bins — is computed once per
``(edges, n_frames)`` and cached.

The format is defined by scalar per-frame, per-band walks, kept as the
oracle in ``tests/oracles/codec.py``.  Wire bytes and decoded samples
are **bit-identical** to them — that is the contract ``tests/codec/
test_batch_differential.py`` pins, and why the quantiser reproduces the
walk's arithmetic operation by operation (``np.ldexp`` powers of two,
the same ``ceil``/``log2`` elementwise ufuncs, integer-exact size sums).

Malformed input fails the same way too: the kernels raise the exception
the walk raises, with its message, at the **first bad band in wire
order**.  A speaker counts an undecodable payload as ``decode_failed``,
so that error is part of the seeded fault ledger:

* decode — a tag past the end raises the ``IndexError`` of
  ``data[offset]``; a missing exponent or Rice length field the
  ``struct.error`` of ``struct.unpack_from``; a fixed width over 16
  ``ValueError("width out of range: N")``; a short fixed payload
  ``ValueError("bitstream too short: ...")``; a Rice band whatever
  :func:`~repro.codec.rice.rice_decode` raises, decoded in the
  descriptor walk so it fails before any later band;
* encode — the first coded band (width >= ``min_width``, nonzero peak)
  whose peak is inf or NaN raises what ``int()`` of its exponent
  raises, and a Rice payload over 0xFFFF bytes the ``struct.error`` of
  packing its u16 length field.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.codec import rice


class _Layout(NamedTuple):
    """Index arrays fixed by the band edges and the frame count."""

    n_bins: int
    count_list: tuple      # bins per band, as Python ints
    counts: np.ndarray     # bins per band
    starts: np.ndarray     # first bin of each band
    band_of: np.ndarray    # band of each bin
    part_first: np.ndarray  # flat (frame, bin) index of a part's first bin
    part_count: np.ndarray  # bins in each part
    within: np.ndarray     # each bin's index in its band (one frame)


@lru_cache(maxsize=32)
def _layout(edges: tuple, n_frames: int) -> _Layout:
    edges_a = np.array(edges, dtype=np.int64)
    counts = np.diff(edges_a)
    n_bins = int(edges_a[-1])
    frame0 = (np.arange(n_frames, dtype=np.int64) * n_bins)[:, None]
    layout = _Layout(
        n_bins=n_bins,
        count_list=tuple(counts.tolist()),
        counts=counts,
        starts=edges_a[:-1],
        band_of=np.repeat(np.arange(len(counts)), counts),
        part_first=(frame0 + edges_a[:-1]).reshape(-1),
        part_count=np.tile(counts, n_frames),
        within=(np.arange(n_bins)
                - np.repeat(edges_a[:-1], counts)).astype(np.int32),
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
        ``(frames, n_bands)`` quantiser widths (bits per coefficient),
        at most 16 (the allocators stop at 15).
    min_width:
        bands below this width are inactive (``b"\\x00"`` parts): 1 for
        the VorbisLike allocator (which never emits width 1), 2 for the
        Mp3Like ladder.
    use_rice:
        offer each active band the adaptive Rice option, exactly like
        ``entropy="rice"``.
    """
    return encode_parts(coeffs, edges, widths, min_width=min_width,
                        use_rice=use_rice)[0].tobytes()


def encode_parts(coeffs, edges, widths, *, min_width: int = 1,
                 use_rice: bool = False):
    """:func:`encode_bands_batched` as ``(body, frame_at)``: the body as
    a ``uint8`` array and the byte offset of every frame's first part,
    so the body of frames ``i..j`` is ``body[frame_at[i]:frame_at[j]]``
    (``frame_at`` has one more entry, the body's length)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n_frames, n_bins = coeffs.shape
    if n_frames == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    if widths.max() > 16:
        # a field is read from a 24-bit window: 16 bits at most
        raise ValueError(f"width out of range: {int(widths.max())}")
    lay = _layout(_edges_key(edges), n_frames)
    band_of = lay.band_of
    counts = lay.counts

    amax = np.maximum.reduceat(np.abs(coeffs), lay.starts, axis=-1)
    coded = widths >= min_width
    bad = None  # (flat band index, peak) of the first non-finite coded band
    if not np.isfinite(amax).all():
        # the walk codes a NaN peak too, and fails turning the peak's
        # exponent into an int; that error is raised below unless an
        # earlier band fails first.  Every non-finite band is zeroed so
        # no inf or NaN reaches an integer cast.
        nonfinite = ~np.isfinite(amax)
        hits = np.flatnonzero(nonfinite & coded)
        if len(hits):
            bad = (int(hits[0]), float(amax.reshape(-1)[hits[0]]))
        coeffs = np.where(np.repeat(nonfinite, counts, axis=1), 0.0, coeffs)
        amax = np.where(nonfinite, 0.0, amax)
    active = coded & (amax > 0.0)

    top = (1 << (np.maximum(widths, 1) - 1)) - 1
    # exponent = ceil(log2(amax / top)), clipped — elementwise ufuncs,
    # identical to the per-band scalar expression.  Only active bands
    # reach the log (inactive ones are masked to 0), and a width-1 band
    # (top 0) divides by zero: +inf, clipped to 120.
    exponent = np.ceil(np.log2(np.where(active, amax, 1.0)
                               / np.maximum(top, 1)))
    exponent = np.where(
        active,
        np.minimum(np.maximum(np.where(top > 0, exponent, np.inf), -120.0),
                   120.0),
        0.0,
    ).astype(np.int64)
    # 2.0 ** e as an exact power of two (ldexp by definition; the scalar
    # path's float pow is exact over |e| <= 120 as well)
    step = np.ldexp(1.0, exponent)

    # offset binary: v = q + 2**(w-1), where top + 1 == 2**(w-1), clipped
    # to [0, 2 * top + 1] — the walk's clip of q to [-top - 1, top],
    # shifted by an exact integer.  An inactive band has bias and cap 0:
    # it quantises to 0 whatever its coefficients.
    bias = np.where(active, top + 1, 0)
    scale = np.repeat(np.array([step, bias, np.maximum(2 * bias - 1, 0)]),
                      counts, axis=2)
    v = np.divide(coeffs, scale[0], out=scale[0])  # in place: v pins scale
    np.rint(v, out=v)  # rint is np.round at 0 decimals
    v += scale[1]
    # maximum/minimum is np.clip without its dispatch overhead
    np.maximum(v, 0.0, out=v)
    np.minimum(v, scale[2], out=v)

    if use_rice:
        fixed_bytes = (widths * counts + 7) // 8
        u = rice.zigzag((v - np.repeat(bias, counts, axis=1)).astype(np.int64))
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
        over = np.flatnonzero(choose_rice & (rice_bytes > 0xFFFF))
        if len(over) and (bad is None or over[0] < bad[0]):
            f, b = divmod(int(over[0]), len(counts))
            # the walk's struct.error for the u16 length field
            struct.pack("<BbH", 0x80 | int(k[f, b]), int(exponent[f, b]),
                        int(rice_bytes[f, b]))
        any_rice = bool(choose_rice.any())
    else:
        any_rice = False
    if bad is not None:
        # int() of a NaN or inf exponent: the walk's ValueError or
        # OverflowError, with its message
        int(bad[1])

    # -- part sizes and offsets ---------------------------------------------
    fixed = active & ~choose_rice if any_rice else active
    w_fixed = np.where(fixed, widths, 0)
    size = np.where(active, 2 + ((w_fixed * counts + 7) >> 3), 1)
    if any_rice:
        size = np.where(choose_rice, 4 + rice_bytes, size)
    ends = np.cumsum(size)  # flat, frame-major
    part_at = ends - size.reshape(-1)
    total = int(ends[-1])

    # -- fixed-width fields: the byte packer ----------------------------------
    # a field of w <= 16 bits at bit r = 0..15 of a big-endian 16-bit cell
    # lies in the 32-bit window of that cell and the next; bincount adds
    # each window's two cells into the body (fields never share a bit, so
    # the sum is their OR).  A band that is not fixed-width has w == 0 and
    # value 0: it adds nothing.
    value = v.reshape(-1).astype(np.int64)
    del v, scale  # the packer's working set stays small
    if any_rice:
        value[np.repeat(choose_rice.reshape(-1), lay.part_count)] = 0
    w_e = np.repeat(w_fixed.reshape(-1), lay.part_count)
    pos = np.repeat(8 * part_at + 16, lay.part_count)
    shift = (w_e.reshape(n_frames, n_bins) * lay.within).reshape(-1)
    pos += shift
    np.bitwise_and(pos, 15, out=shift)
    shift += w_e
    del w_e
    np.subtract(32, shift, out=shift)
    value <<= shift  # the field in its window
    cell = np.right_shift(pos, 4, out=pos)
    # room past the body's last cell: a zero-width field of a last,
    # inactive part sits one cell beyond it
    n = (total + 1) // 2 + 3
    hi = np.right_shift(value, 16, out=shift)
    cells = np.bincount(cell, hi, n)
    cells[1:] += np.bincount(cell, np.bitwise_and(value, 0xFFFF, out=hi),
                             n)[:-1]
    body = cells.astype(">u2").view(np.uint8)[:total]
    # descriptors: tag byte, then int8 exponent
    flat_active = active.reshape(-1)
    at = part_at[flat_active]
    tag = np.where(choose_rice, 0x80 | k, widths) if any_rice else widths
    body[at] = tag[active]
    body[at + 1] = exponent[active] & 0xFF
    frame_at = np.append(part_at[:: len(counts)], total)

    if not any_rice:
        return body, frame_at

    # -- Rice bands: u16 length, then unary quotient + k-bit remainder ------
    stream = np.zeros(8 * total, dtype=np.uint8)
    part_starts = part_at.reshape(n_frames, -1)
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
    body |= np.packbits(stream)
    ps = part_starts[choose_rice]
    nb = rice_bytes[choose_rice]
    body[ps + 2] = nb & 0xFF
    body[ps + 3] = nb >> 8
    return body, frame_at


def _read_fields(buf: np.ndarray, bitpos: np.ndarray, width: np.ndarray):
    """The ``width``-bit big-endian fields starting at bit ``bitpos``.

    ``buf`` is the byte buffer as a signed integer array (32 bits are
    enough) with two zero bytes appended.  Each field is cut from the
    24-bit window at its first byte, which holds it whole for
    ``width <= 16`` at any bit offset 0..7.
    """
    win = (buf[:-2] << 16) | (buf[1:-1] << 8) | buf[2:]
    shift = 24 - (bitpos & 7) - width
    return (win[bitpos >> 3] >> shift) & ((1 << width) - 1)


class Walk(NamedTuple):
    """The descriptors of a run of frames, from :func:`walk_bands`."""

    #: per part: payload offset of a fixed-width part plus the walk's
    #: ``base``, 0 for any other part
    fixed_at: list
    #: ``(part, values)`` of every Rice part, decoded and scaled
    rice: list
    #: offset just past the last part
    end: int


def walk_bands(data, offset: int, n_frames: int, edges, *,
               rice_tags: bool = True, base: int = 0) -> Walk:
    """Walk ``n_frames`` frames of band descriptors at ``offset``.

    ``base`` is added to every fixed-width offset: the position of
    ``data`` in a buffer that holds several payloads.  A malformed
    stream raises the walk's exception at its first bad band.
    """
    lay = _layout(_edges_key(edges), n_frames)
    end = len(data)
    # payload offset of every fixed-width part, 0 for the others (a
    # payload follows its two descriptor bytes, so 0 is never one)
    fixed_at = [0] * len(lay.part_count)
    rice_parts: list = []
    for part, count in enumerate(lay.count_list * n_frames):
        tag = data[offset]  # past the end: the walk's IndexError
        if tag == 0:
            offset += 1
            continue
        offset += 2  # the tag and exponent bytes
        if offset > end:
            struct.unpack_from("<b", data, offset - 1)  # the walk's error
        if rice_tags and tag & 0x80:
            exp = data[offset - 1]
            if exp > 127:
                exp -= 256
            if offset + 2 > end:
                struct.unpack_from("<H", data, offset)  # the walk's error
            nbytes = data[offset] | (data[offset + 1] << 8)
            offset += 2
            # decoded here, in wire order, so its error beats later bands'
            q = rice.rice_decode(data[offset : offset + nbytes], tag & 0x7F,
                                 count)
            rice_parts.append((part, q * (2.0**exp)))
        else:
            if tag > 16:
                raise ValueError(f"width out of range: {tag}")
            nbytes = (tag * count + 7) >> 3
            if offset + nbytes > end:
                raise ValueError(
                    f"bitstream too short: have {8 * (end - offset)} bits, "
                    f"need {tag * count}"
                )
            fixed_at[part] = base + offset
        offset += nbytes
    return Walk(fixed_at, rice_parts, offset)


def read_bands(buf: np.ndarray, walks: list, n_frames: int,
               edges) -> np.ndarray:
    """Every band value of the walked frames, shape
    ``(len(walks) * n_frames, n_bins)``; inactive bands stay zero.

    ``walks`` each cover ``n_frames`` frames of ``edges``, their offsets
    based in ``buf``: the payloads as one ``int32`` array with two zero
    bytes appended.  One field read serves them all.
    """
    lay = _layout(_edges_key(edges), len(walks) * n_frames)
    at = np.array([w.fixed_at for w in walks], dtype=np.int32).reshape(-1)
    if at.any():
        # per part: width, int8 exponent, first payload bit — all 0 when
        # the part is not fixed-width (indices -2/-1 read the zero pad)
        w, exp, bit0 = np.repeat(
            np.array([buf[at - 2], (buf[at - 1] ^ 0x80) - 0x80, at * 8]),
            lay.part_count,
            axis=1,
        )
        bit0 += (w.reshape(-1, lay.n_bins) * lay.within).reshape(-1)
        field = _read_fields(buf, bit0, w)
        # offset binary back to signed, times 2**exp (exact); 0.0 where
        # w == 0
        field -= (1 << w) >> 1
        values = np.ldexp(field, exp)
    else:
        values = np.zeros(len(walks) * n_frames * lay.n_bins)

    parts = len(lay.count_list) * n_frames
    for i, walk in enumerate(walks):
        for part, scaled in walk.rice:
            first = int(lay.part_first[i * parts + part])
            values[first : first + len(scaled)] = scaled
    return values.reshape(-1, lay.n_bins)


def payload_buffer(payloads) -> np.ndarray:
    """``payloads`` joined as one ``int32`` array plus two zero bytes,
    the buffer :func:`read_bands` reads."""
    joined = b"".join(payloads) + b"\x00\x00"
    return np.frombuffer(joined, dtype=np.uint8).astype(np.int32)


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
    ``(n_frames, n_bins)``; inactive bands stay zero.  A malformed
    stream raises the walk's exception at its first bad band (see the
    module docstring).
    """
    walk = walk_bands(data, offset, n_frames, edges, rice_tags=rice_tags)
    buf = payload_buffer([data]) if any(walk.fixed_at) else None
    return read_bands(buf, [walk], n_frames, edges), walk.end
