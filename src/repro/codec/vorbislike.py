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

from repro.codec.base import (
    BlockCodec,
    CodecID,
    decoded_blocks,
    register_codec,
)
from repro.codec.batch import (
    encode_parts,
    payload_buffer,
    read_bands,
    walk_bands,
)
from repro.codec.mdct import mdct_analysis, mdct_synthesis
from repro.codec.psycho import PsychoModel
from repro.codec.queue import QUEUE

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

    def batch_key(self, op: str):
        """Decoding needs only the sample rate (each block's header
        carries the rest); encoding needs the whole configuration."""
        if op == "decode":
            return (type(self), self.sample_rate)
        return (type(self), self.quality, self.sample_rate,
                self.frame_size, self.entropy, self.window_switching)

    # -- encoding ---------------------------------------------------------------

    # encode_block/decode_block are declared on this class, not only
    # inherited: the benchmark's layer tracer wraps this class's own entry
    # points, and the group kernels must run inside them

    def encode_block(self, samples: np.ndarray) -> bytes:
        """One block, encoded with every block of its group handed over
        so far (:meth:`encode_blocks`)."""
        return QUEUE.take(self, "encode", samples)

    def encode_blocks(self, blocks: list) -> list:
        """Every block through one stacked pass of the kernels: one MDCT,
        one bit allocation and one band-coding call per block geometry
        (frame size and length), each block's body a slice of the
        output.  Should any block fail, this raises, and the queue
        encodes each block alone."""
        planes, sizes = zip(*[self._planes(b) for b in blocks])
        out = [b""] * len(blocks)
        for (frame_size, length), idx in _by_key(
            (fs, p.shape[1]) for p, fs in zip(planes, sizes)
        ).items():
            coeffs = mdct_analysis(
                np.concatenate([planes[i] for i in idx]), frame_size
            )[0]
            n_frames = coeffs.shape[1]
            frames = coeffs.reshape(-1, frame_size)
            model = _model(self.sample_rate, frame_size)
            widths = model.allocate_widths(model.band_energies(frames),
                                           self.quality)
            body, frame_at = encode_parts(
                frames, model.edges, widths, min_width=1,
                use_rice=self.entropy == "rice",
            )
            first = 0
            for i in idx:
                channels = planes[i].shape[0]
                last = first + channels * n_frames
                out[i] = self._header(channels, frame_size, length,
                                      n_frames) + body[
                    frame_at[first] : frame_at[last]
                ].tobytes()
                first = last
        return out

    def _analyse(self, samples: np.ndarray):
        """The block header, the MDCT frames in wire order (every frame
        of the mid plane, then every side frame) and the psycho model."""
        planes, frame_size = self._planes(samples)
        coeffs = mdct_analysis(planes, frame_size)[0]
        header = self._header(planes.shape[0], frame_size, planes.shape[1],
                              coeffs.shape[1])
        return (header, coeffs.reshape(-1, frame_size),
                _model(self.sample_rate, frame_size))

    def _planes(self, samples: np.ndarray):
        """The block's planes ``(channels, samples)`` — mid then side for
        stereo — and the frame size to code them with."""
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        channels = x.shape[1]
        if channels not in (1, 2):
            raise ValueError(f"1 or 2 channels required, got {channels}")
        if channels == 2:
            planes = np.stack(
                [(x[:, 0] + x[:, 1]) / 2.0, (x[:, 0] - x[:, 1]) / 2.0]
            )
        else:
            planes = x.T
        return planes, self._pick_frame_size(planes)

    def _header(self, channels: int, frame_size: int, num_samples: int,
                num_frames: int) -> bytes:
        return _HEADER.pack(
            int(self.codec_id),
            self.quality,
            channels,
            frame_size.bit_length() - 1,
            num_samples,
            num_frames,
        )

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

    def decode_block(self, data: bytes, params=None):
        """One block, decoded with every payload of its group handed over
        so far (:meth:`decode_blocks`): its samples, or with ``params``
        its :class:`~repro.codec.cache.DecodedBlock`."""
        return QUEUE.take(self, "decode", data, params)

    def decode_blocks(self, payloads: list, params=None) -> list:
        """Each payload's header and band descriptors are walked alone,
        so a malformed payload fails by itself.  Then one field read,
        one synthesis and (with ``params``) one PCM conversion serve
        every sound payload of the same geometry; should those fail,
        this raises, and the queue decodes each payload alone."""
        out = [None] * len(payloads)
        bases = np.cumsum([0] + [len(data) for data in payloads]).tolist()
        walked: dict = {}
        for i, data in enumerate(payloads):
            try:
                geometry, edges = self._parse(data)
                walk = walk_bands(data, _HEADER.size,
                                  geometry[0] * geometry[2], edges,
                                  base=bases[i])
            except Exception as exc:  # noqa: BLE001 — this payload's own
                out[i] = exc
                continue
            walked.setdefault(geometry, []).append((i, walk, edges))
        buf = payload_buffer(payloads)
        for (channels, log2n, num_frames, num_samples), members in (
            walked.items()
        ):
            coeffs = read_bands(buf, [w for _, w, _ in members],
                                channels * num_frames, members[0][2])
            samples = _samples(coeffs.reshape(
                len(members), channels, num_frames, 1 << log2n
            ), num_samples)
            results = (list(samples) if params is None
                       else decoded_blocks(samples, params))
            for (i, _, _), res in zip(members, results):
                out[i] = res
        return out

    def _parse(self, data):
        """``(channels, log2n, num_frames, num_samples)`` and the band
        edges of a block, from its header."""
        codec, quality, channels, log2n, num_samples, num_frames = (
            _HEADER.unpack_from(data, 0)
        )
        if codec != int(self.codec_id):
            raise ValueError(f"not a vorbislike block (codec id {codec})")
        edges = _model(self.sample_rate, 1 << log2n).edges
        return (channels, log2n, num_frames, num_samples), edges

    def _decode(self, data: bytes, decode_bands) -> np.ndarray:
        """Header, then every plane's frames through ``decode_bands``."""
        (channels, log2n, num_frames, num_samples), edges = self._parse(data)
        offset = _HEADER.size
        planes = []
        for _ in range(channels):
            coeffs, offset = decode_bands(data, offset, num_frames, edges)
            planes.append(coeffs)
        coeffs = np.array(planes).reshape(1, channels, num_frames, 1 << log2n)
        return _samples(coeffs, num_samples)[0]


def _samples(coeffs: np.ndarray, num_samples: int) -> np.ndarray:
    """Blocks of plane coefficients ``(blocks, planes, frames, bins)`` ->
    clipped samples ``(blocks, num_samples, channels)``."""
    planes = mdct_synthesis(coeffs, num_samples)
    if planes.shape[1] == 2:
        mid, side = planes[:, 0], planes[:, 1]
        out = np.stack([mid + side, mid - side], axis=-1)
    else:
        # mono; a corrupt channel count of 0 fails here
        out = planes[:, 0, :, None]
    # np.clip without its dispatch overhead (NaN propagates the same)
    return np.minimum(np.maximum(out, -1.0), 1.0)


def _by_key(keys) -> dict:
    """``{key: [indices]}`` of an iterable of keys, in first-seen order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


register_codec(CodecID.VORBIS_LIKE, VorbisLikeCodec)
