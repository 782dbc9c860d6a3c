"""Scalar reference walks for the band codecs.

The band wire format is defined by per-frame, per-band Python loops:
the VorbisLike and Mp3Like encode loops, their descriptor walks on the
decode side, and the per-bit Rice walk :func:`reference_rice_decode`.
The whole-block kernels in :mod:`repro.codec.batch` (with
:func:`repro.codec.rice.rice_decode`) must give the same wire bytes and
samples, and on malformed input raise the same exception with the same
message at the same (first) bad band.

``scalar_encode_block``/``scalar_decode_block`` run a codec block
through the walks: the header, then the loop for every frame.  They
take the codec as their first argument, so a whole-station test can
install them with ``monkeypatch.setattr(VorbisLikeCodec,
"encode_block", scalar_encode_block)`` and run the scalar arm end to
end.
"""

import struct

import numpy as np

from repro.codec.mdct import imdct, sine_window
from repro.codec.mp3like import _EDGES as MP3_EDGES
from repro.codec.mp3like import Mp3LikeCodec
from repro.codec.rice import unzigzag, zigzag
from tests.oracles import bitpack

# -- Rice --------------------------------------------------------------------


def best_k(values: np.ndarray) -> int:
    """Near-optimal Rice parameter from the mean magnitude."""
    u = zigzag(values)
    if len(u) == 0:
        return 0
    mean = float(u.mean())
    if mean < 1.0:
        return 0
    return min(30, max(0, int(np.log2(mean + 1.0))))


def rice_encode(values: np.ndarray, k: int) -> bytes:
    """Vectorised Rice encoding of signed integers."""
    if k < 0 or k > 30:
        raise ValueError(f"rice parameter out of range: {k}")
    u = zigzag(values)
    if len(u) == 0:
        return b""
    q = (u >> np.uint64(k)).astype(np.int64)
    lengths = q + 1 + k
    total_bits = int(lengths.sum())
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    bits = np.zeros(total_bits, dtype=np.uint8)
    # unary part: q zeros then a one
    bits[starts + q] = 1
    # remainder: k bits, MSB first
    for j in range(k):
        shift = np.uint64(k - 1 - j)
        bits[starts + q + 1 + j] = (
            (u >> shift) & np.uint64(1)
        ).astype(np.uint8)
    return np.packbits(bits).tobytes()


def rice_size_bytes(values: np.ndarray, k: int) -> int:
    """Exact encoded size without materialising the bitstream."""
    u = zigzag(values)
    if len(u) == 0:
        return 0
    total_bits = int(((u >> np.uint64(k)).astype(np.int64) + 1 + k).sum())
    return (total_bits + 7) // 8


def reference_rice_decode(data: bytes, k: int, count: int) -> np.ndarray:
    """The scalar per-bit walk :func:`repro.codec.rice.rice_decode` must
    match exactly — including its lenient handling of truncated
    ``k == 0`` streams, the ``ValueError`` a truncated remainder raises
    and the ``OverflowError`` of a value too wide for ``uint64``."""
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    out = np.empty(count, dtype=np.uint64)
    pos = 0
    n_bits = len(bits)
    for i in range(count):
        q = 0
        while pos < n_bits and bits[pos] == 0:
            q += 1
            pos += 1
        pos += 1  # the terminating one
        remainder = 0
        for _ in range(k):
            if pos >= n_bits:
                raise ValueError("rice stream truncated")
            remainder = (remainder << 1) | int(bits[pos])
            pos += 1
        out[i] = (q << k) | remainder
    return unzigzag(out)


# -- VorbisLike --------------------------------------------------------------


def vorbis_reference_encode(codec, coeffs: np.ndarray, model) -> bytes:
    """Scalar per-frame, per-band loop the batched kernel must match
    byte for byte."""
    parts = []
    for frame in coeffs:
        energies = model.band_energies(frame)
        widths = model.allocate_widths(energies, codec.quality)
        for b in range(model.n_bands):
            width = int(widths[b])
            lo, hi = model.edges[b], model.edges[b + 1]
            band = frame[lo:hi]
            amax = float(np.max(np.abs(band))) if hi > lo else 0.0
            if width == 0 or amax == 0.0:
                parts.append(b"\x00")
                continue
            top = (1 << (width - 1)) - 1
            exponent = int(np.ceil(np.log2(amax / top)))
            exponent = max(-120, min(120, exponent))
            step = 2.0**exponent
            q = np.clip(np.round(band / step), -top - 1, top)
            q = q.astype(np.int64)
            if codec.entropy == "rice":
                # adaptive: Rice wins on peaky bands (quiet
                # coefficients under a few spectral lines), fixed
                # width wins on dense ones — pick per band, the
                # decoder handles either tag
                k = best_k(q)
                rice_bytes = rice_size_bytes(q, k) + 2
                fixed_bytes = bitpack.packed_size(width, len(q))
                if rice_bytes < fixed_bytes:
                    payload = rice_encode(q, k)
                    parts.append(struct.pack(
                        "<BbH", 0x80 | k, exponent, len(payload)
                    ) + payload)
                    continue
            parts.append(struct.pack("<Bb", width, exponent)
                         + bitpack.pack_int(q, width))
    return b"".join(parts)


def vorbis_reference_decode_bands(data: bytes, offset: int,
                                  num_frames: int, edges: np.ndarray):
    """Scalar walker; on a malformed stream its exception is the
    contract."""
    out = np.zeros((num_frames, edges[-1]))
    for f in range(num_frames):
        for b in range(len(edges) - 1):
            tag = data[offset]
            offset += 1
            if tag == 0:
                continue
            (exponent,) = struct.unpack_from("<b", data, offset)
            offset += 1
            lo, hi = edges[b], edges[b + 1]
            count = hi - lo
            if tag & 0x80:  # Rice-coded band
                k = tag & 0x7F
                (nbytes,) = struct.unpack_from("<H", data, offset)
                offset += 2
                q = reference_rice_decode(
                    data[offset : offset + nbytes], k, count
                )
            else:  # fixed-width band
                nbytes = bitpack.packed_size(tag, count)
                q = bitpack.unpack_int(
                    data[offset : offset + nbytes], tag, count
                )
            offset += nbytes
            out[f, lo:hi] = q * (2.0**exponent)
    return out, offset


# -- Mp3Like -----------------------------------------------------------------


def mp3_reference_encode(spectra: np.ndarray, widths: np.ndarray) -> bytes:
    """Scalar per-block, per-band loop the batched kernel must match
    byte for byte."""
    parts = []
    for spec in spectra:
        for b in range(len(MP3_EDGES) - 1):
            width = int(widths[b])
            lo, hi = MP3_EDGES[b], MP3_EDGES[b + 1]
            band = spec[lo:hi]
            amax = float(np.max(np.abs(band)))
            if width < 2 or amax == 0.0:
                parts.append(b"\x00")
                continue
            top = (1 << (width - 1)) - 1
            exponent = int(np.ceil(np.log2(amax / top)))
            exponent = max(-120, min(120, exponent))
            q = np.clip(
                np.round(band / 2.0**exponent), -top - 1, top
            ).astype(np.int64)
            parts.append(struct.pack("<Bb", width, exponent)
                         + bitpack.pack_int(q, width))
    return b"".join(parts)


def mp3_reference_decode_bands(data: bytes, offset: int, num_blocks: int):
    """Scalar walker; on a malformed stream its exception is the
    contract."""
    spectra = np.zeros((num_blocks, MP3_EDGES[-1]))
    for blk in range(num_blocks):
        for b in range(len(MP3_EDGES) - 1):
            width = data[offset]
            offset += 1
            if width == 0:
                continue
            (exponent,) = struct.unpack_from("<b", data, offset)
            offset += 1
            lo, hi = MP3_EDGES[b], MP3_EDGES[b + 1]
            count = hi - lo
            nbytes = bitpack.packed_size(width, count)
            q = bitpack.unpack_int(data[offset : offset + nbytes], width,
                                   count)
            offset += nbytes
            spectra[blk, lo:hi] = q * 2.0**exponent
    return spectra, offset


# -- whole blocks ------------------------------------------------------------


def scalar_encode_block(codec, samples) -> bytes:
    header, frames, side = codec._analyse(samples)
    if isinstance(codec, Mp3LikeCodec):
        return header + mp3_reference_encode(frames, side)
    return header + vorbis_reference_encode(codec, frames, side)


def scalar_decode_block(codec, data) -> np.ndarray:
    if isinstance(codec, Mp3LikeCodec):
        return codec._decode(data, mp3_reference_decode_bands)
    return codec._decode(data, vorbis_reference_decode_bands)


def reference_mdct_synthesis(coeffs: np.ndarray, length: int) -> np.ndarray:
    """The per-frame overlap-add loop the vectorised
    :func:`~repro.codec.mdct.mdct_synthesis` must match bit for bit."""
    num_frames, n = coeffs.shape
    out = np.zeros((num_frames + 1) * n)
    chunks = imdct(coeffs) * sine_window(2 * n)[None, :]
    for i in range(num_frames):
        out[i * n : i * n + 2 * n] += chunks[i]
    return out[n : n + length]
