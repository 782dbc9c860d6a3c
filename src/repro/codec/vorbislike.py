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

from repro.codec.base import BlockCodec, CodecID, register_codec
from repro.codec.batch import decode_bands_batched, encode_bands_batched
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
        self._log2n = frame_size.bit_length() - 1

    # -- encoding ---------------------------------------------------------------

    def encode_block(self, samples: np.ndarray) -> bytes:
        """One block through the whole-block kernels of
        :mod:`repro.codec.batch`."""
        header, coeffs, model = self._analyse(samples)
        energies = model.band_energies(coeffs)
        widths = model.allocate_widths(energies, self.quality)
        return header + encode_bands_batched(
            coeffs,
            model.edges,
            widths,
            min_width=1,
            use_rice=self.entropy == "rice",
        )

    def _analyse(self, samples: np.ndarray):
        """The block header, the MDCT frames in wire order (every frame
        of the mid plane, then every side frame) and the psycho model."""
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
        coeffs_list = [mdct_analysis(plane, frame_size)[0] for plane in planes]
        header = _HEADER.pack(
            int(self.codec_id),
            self.quality,
            channels,
            frame_size.bit_length() - 1,
            num_samples,
            coeffs_list[0].shape[0],
        )
        coeffs = np.concatenate(coeffs_list, axis=0)
        return header, coeffs, _model(self.sample_rate, frame_size)

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

    # -- decoding ---------------------------------------------------------------

    def decode_block(self, data: bytes) -> np.ndarray:
        return self._decode(data, decode_bands_batched)

    def _decode(self, data: bytes, decode_bands) -> np.ndarray:
        """Header, then every plane's frames through ``decode_bands``."""
        codec, quality, channels, log2n, num_samples, num_frames = (
            _HEADER.unpack_from(data, 0)
        )
        if codec != int(self.codec_id):
            raise ValueError(f"not a vorbislike block (codec id {codec})")
        edges = _model(self.sample_rate, 1 << log2n).edges
        offset = _HEADER.size
        planes = []
        for _ in range(channels):
            coeffs, offset = decode_bands(data, offset, num_frames, edges)
            planes.append(mdct_synthesis(coeffs, num_samples))
        if channels == 2:
            mid, side = planes
            out = np.stack([mid + side, mid - side], axis=1)
        else:
            out = planes[0][:, None]
        # np.clip without its dispatch overhead (NaN propagates the same)
        return np.minimum(np.maximum(out, -1.0), 1.0)


register_codec(CodecID.VORBIS_LIKE, VorbisLikeCodec)
