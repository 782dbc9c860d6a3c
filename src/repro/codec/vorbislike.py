"""The MDCT psychoacoustic codec standing in for Ogg Vorbis.

A real lossy transform codec: sine-windowed MDCT, Bark-band grouping,
masking-driven bit allocation, block-floating-point quantisation, and
vectorised bit packing.  Each encoded block is fully self-contained so a
speaker can decode any packet in isolation.

The 0–10 ``quality`` index mirrors the paper's use of Vorbis: "we simply set
the Ogg Vorbis quality index to its maximum [so] the algorithm throws away
as little data as possible while still providing adequate compression"
(§2.2).
"""

from __future__ import annotations

import struct
from functools import lru_cache

import numpy as np

from repro.codec import bitpack, rice
from repro.codec.base import BlockCodec, CodecID, register_codec
from repro.codec.batch import (
    BatchFallback,
    decode_bands_batched,
    encode_bands_batched,
)
from repro.codec.mdct import mdct_analysis, mdct_synthesis
from repro.codec.psycho import PsychoModel

_HEADER = struct.Struct("<BBBBIH")  # codec, quality, channels, log2n, samples, frames


@lru_cache(maxsize=16)
def _model(sample_rate: int, n: int) -> PsychoModel:
    return PsychoModel(sample_rate, n)


class VorbisLikeCodec(BlockCodec):
    """Encoder/decoder pair with a Vorbis-style quality index.

    Parameters
    ----------
    quality:
        0 (smallest, roughest) .. 10 (the paper's "maximum quality index").
    sample_rate:
        used only by the psychoacoustic model's Bark mapping.
    frame_size:
        MDCT coefficients per frame; must be a power of two.
    """

    codec_id = CodecID.VORBIS_LIKE

    def __init__(
        self,
        quality: int = 10,
        sample_rate: int = 44100,
        frame_size: int = 512,
        entropy: str = "fixed",
        window_switching: bool = False,
        batched: bool = True,
    ):
        if not 0 <= quality <= 10:
            raise ValueError(f"quality must be 0..10: {quality}")
        if frame_size & (frame_size - 1) or frame_size < 64:
            raise ValueError(
                f"frame_size must be a power of two >= 64: {frame_size}"
            )
        if entropy not in ("fixed", "rice"):
            raise ValueError(f"unknown entropy coder: {entropy}")
        self.quality = quality
        self.sample_rate = sample_rate
        self.frame_size = frame_size
        #: transient-adaptive frames: a block with a sharp attack is coded
        #: with short frames so quantisation noise cannot smear backwards
        #: in time (pre-echo) across a long window.  The packet header
        #: carries the frame size, so decoders need no configuration.
        self.window_switching = window_switching
        #: "fixed" = per-band fixed-width packing (fast); "rice" =
        #: Rice-coded residue (smaller, FLAC-style).  The decoder handles
        #: both regardless of this setting — each band is tagged.
        self.entropy = entropy
        #: whole-block vectorised kernels (:mod:`repro.codec.batch`);
        #: bit-identical to the per-frame reference loops, which survive
        #: as ``_reference_*`` and handle the inputs the batch kernels
        #: refuse (non-finite coefficients, malformed streams)
        self.batched = batched
        self._log2n = frame_size.bit_length() - 1

    # -- encoding ---------------------------------------------------------------

    def encode_block(self, samples: np.ndarray) -> bytes:
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        num_samples, channels = x.shape
        if channels not in (1, 2):
            raise ValueError(f"1 or 2 channels required, got {channels}")
        if channels == 2:
            planes = [(x[:, 0] + x[:, 1]) / 2.0, (x[:, 0] - x[:, 1]) / 2.0]
        else:
            planes = [x[:, 0]]

        frame_size = self._pick_frame_size(planes)
        model = _model(self.sample_rate, frame_size)
        coeffs_list = []
        num_frames = 0
        for plane in planes:
            coeffs, _ = mdct_analysis(plane, frame_size)
            num_frames = coeffs.shape[0]
            coeffs_list.append(coeffs)
        header = _HEADER.pack(
            int(self.codec_id),
            self.quality,
            channels,
            frame_size.bit_length() - 1,
            num_samples,
            num_frames,
        )
        if self.batched:
            try:
                # planes stacked frame-major preserves the wire order:
                # every frame of the mid plane, then every side frame
                all_coeffs = np.concatenate(coeffs_list, axis=0)
                energies = model.band_energies(all_coeffs)
                widths = model.allocate_widths(energies, self.quality)
                body = encode_bands_batched(
                    all_coeffs,
                    model.edges,
                    widths,
                    min_width=1,
                    use_rice=self.entropy == "rice",
                )
                return header + body
            except BatchFallback:
                pass
        chunks = []
        for coeffs in coeffs_list:
            for frame in coeffs:
                chunks.append(self._reference_encode_frame(frame, model))
        return header + b"".join(chunks)

    #: a segment this much louder than the block's quiet parts is an attack
    TRANSIENT_RATIO = 30.0

    def _pick_frame_size(self, planes) -> int:
        """Long frames normally; short frames when the block has an attack."""
        if not self.window_switching:
            return self.frame_size
        short = max(64, self.frame_size // 4)
        mono = planes[0]
        n_seg = 16
        seg = max(1, len(mono) // n_seg)
        if seg < 8:
            return self.frame_size
        usable = (len(mono) // seg) * seg
        energies = (
            np.square(mono[:usable]).reshape(-1, seg).mean(axis=1)
        )
        quiet = float(np.median(energies)) + 1e-12
        if float(energies.max()) / quiet > self.TRANSIENT_RATIO:
            return short
        return self.frame_size

    def _reference_encode_frame(
        self, frame: np.ndarray, model: PsychoModel
    ) -> bytes:
        """Scalar per-band loop the batched kernel must match byte for
        byte; also the fallback for inputs the kernel refuses."""
        energies = model.band_energies(frame)
        widths = model.allocate_widths(energies, self.quality)
        parts = []
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
            q = np.clip(np.round(band / step), -top - 1, top).astype(np.int64)
            if self.entropy == "rice":
                # adaptive: Rice wins on peaky bands (quiet coefficients
                # under a few spectral lines), fixed width wins on dense
                # ones — pick per band, the decoder handles either tag
                k = rice.best_k(q)
                rice_bytes = rice.rice_size_bytes(q, k) + 2
                fixed_bytes = bitpack.packed_size(width, len(q))
                if rice_bytes < fixed_bytes:
                    payload = rice.rice_encode(q, k)
                    parts.append(
                        struct.pack(
                            "<BbH", 0x80 | k, exponent, len(payload)
                        )
                        + payload
                    )
                    continue
            parts.append(
                struct.pack("<Bb", width, exponent)
                + bitpack.pack_int(q, width)
            )
        return b"".join(parts)

    # -- decoding ---------------------------------------------------------------

    def decode_block(self, data: bytes) -> np.ndarray:
        codec, quality, channels, log2n, num_samples, num_frames = (
            _HEADER.unpack_from(data, 0)
        )
        if codec != int(self.codec_id):
            raise ValueError(f"not a vorbislike block (codec id {codec})")
        n = 1 << log2n
        model = _model(self.sample_rate, n)
        planes = None
        if self.batched:
            try:
                planes = []
                offset = _HEADER.size
                for _ in range(channels):
                    coeffs, offset = decode_bands_batched(
                        data, offset, num_frames, model.edges
                    )
                    planes.append(mdct_synthesis(coeffs, num_samples))
            except BatchFallback:
                # malformed stream: the reference walker's exact error
                # is the contract, so re-decode from the block start
                planes = None
        if planes is None:
            offset = _HEADER.size
            planes = []
            for _ in range(channels):
                coeffs = np.zeros((num_frames, n))
                for f in range(num_frames):
                    offset = self._reference_decode_frame(
                        data, offset, coeffs[f], model
                    )
                planes.append(mdct_synthesis(coeffs, num_samples))
        if channels == 2:
            mid, side = planes
            out = np.stack([mid + side, mid - side], axis=1)
        else:
            out = planes[0][:, None]
        # np.clip without its dispatch overhead (NaN propagates the same)
        return np.minimum(np.maximum(out, -1.0), 1.0)

    def _reference_decode_frame(
        self, data: bytes, offset: int, out: np.ndarray, model: PsychoModel
    ) -> int:
        for b in range(model.n_bands):
            tag = data[offset]
            offset += 1
            if tag == 0:
                continue
            (exponent,) = struct.unpack_from("<b", data, offset)
            offset += 1
            lo, hi = model.edges[b], model.edges[b + 1]
            count = hi - lo
            if tag & 0x80:  # Rice-coded band
                k = tag & 0x7F
                (nbytes,) = struct.unpack_from("<H", data, offset)
                offset += 2
                q = rice._reference_rice_decode(
                    data[offset : offset + nbytes], k, count
                )
            else:  # fixed-width band
                nbytes = bitpack.packed_size(tag, count)
                q = bitpack.unpack_int(
                    data[offset : offset + nbytes], tag, count
                )
            offset += nbytes
            out[lo:hi] = q * (2.0**exponent)
        return offset


register_codec(CodecID.VORBIS_LIKE, VorbisLikeCodec)
