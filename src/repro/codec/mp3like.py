"""A deliberately *different* lossy codec plus a file format around it.

Stands in for MP3 in the tandem-coding experiment (§2.2): "If a user were to
take their favorite MP3 file and play it over the Ogg Vorbis equipped
Ethernet Speaker it would pass through two very different lossy audio
compression algorithms."  Where :class:`VorbisLikeCodec` uses an overlapped
MDCT with masking-driven allocation, this codec uses non-overlapped DCT-II
blocks with a *fixed* bitrate ladder — different transform, different
windowing, different allocation, hence genuinely different loss patterns.

:class:`Mp3LikeFile` is the container the simulated ``mpg123`` player reads
(:mod:`repro.apps.mp3player`).
"""

from __future__ import annotations

import struct
from functools import partial

import numpy as np
from scipy.fft import dct, idct

from repro.codec.base import BlockCodec, CodecID, register_codec
from repro.codec.batch import decode_bands_batched, encode_bands_batched

_BLOCK = 576  # samples per transform block, MP3's granule size
_HEADER = struct.Struct("<BBHI")  # codec, channels, kbps, num_samples

#: geometric band edges over the 576 spectral lines
_EDGES = np.unique(
    np.round(np.geomspace(1, _BLOCK, 22)).astype(np.int64) - 1
)
_EDGES[0] = 0
_EDGES[-1] = _BLOCK

SUPPORTED_KBPS = (96, 128, 192, 256, 320)

#: the batched band decoder for Mp3Like streams, which carry no Rice bands
_decode_bands = partial(decode_bands_batched, edges=_EDGES, rice_tags=False)


def _width_table(kbps: int, channels: int) -> np.ndarray:
    """Fixed per-band quantiser widths for a target bitrate.

    Low bands keep more bits; the scale factor is chosen so the packed
    size lands near the nominal rate for 44.1 kHz stereo material.
    """
    base = np.linspace(1.0, 0.35, len(_EDGES) - 1)
    # average bits per sample the nominal rate affords (44.1 kHz material)
    bits_per_sample = kbps * 1000.0 / (44100.0 * channels)
    widths = np.round(base * bits_per_sample / base.mean()).astype(np.int64)
    return np.clip(widths, 0, 15)


class Mp3LikeCodec(BlockCodec):
    """Fixed-rate DCT-II codec.  ``bitrate_kbps`` picks the rung."""

    codec_id = CodecID.MP3_LIKE

    def __init__(self, bitrate_kbps: int = 192):
        if bitrate_kbps not in SUPPORTED_KBPS:
            raise ValueError(
                f"bitrate {bitrate_kbps} not in ladder {SUPPORTED_KBPS}"
            )
        self.bitrate_kbps = bitrate_kbps

    def _encode_one(self, samples: np.ndarray) -> bytes:
        """One block through the whole-block kernels of
        :mod:`repro.codec.batch`."""
        header, spectra, widths = self._analyse(samples)
        return header + encode_bands_batched(
            spectra,
            _EDGES,
            np.broadcast_to(widths, (spectra.shape[0], len(_EDGES) - 1)),
            min_width=2,
            use_rice=False,
        )

    def _analyse(self, samples: np.ndarray):
        """The block header, the DCT spectra in wire order (every block
        of channel 0, then channel 1) and the per-band widths."""
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        num_samples, channels = x.shape
        widths = _width_table(self.bitrate_kbps, channels)
        padded_len = ((num_samples + _BLOCK - 1) // _BLOCK) * _BLOCK
        padded = np.zeros((padded_len, channels))
        padded[:num_samples] = x
        header = _HEADER.pack(
            int(self.codec_id), channels, self.bitrate_kbps, num_samples
        )
        spectra = np.concatenate([
            dct(padded[:, ch].reshape(-1, _BLOCK), type=2, axis=1,
                norm="ortho")
            for ch in range(channels)
        ], axis=0)
        return header, spectra, widths

    def _decode_one(self, data: bytes) -> np.ndarray:
        return self._decode(data, _decode_bands)

    def _decode(self, data: bytes, decode_bands) -> np.ndarray:
        """Header, then every channel's spectra through ``decode_bands``."""
        codec, channels, kbps, num_samples = _HEADER.unpack_from(data, 0)
        if codec != int(self.codec_id):
            raise ValueError(f"not an mp3like block (codec id {codec})")
        num_blocks = (num_samples + _BLOCK - 1) // _BLOCK
        offset = _HEADER.size
        planes = []
        for _ in range(channels):
            spectra, offset = decode_bands(data, offset, num_blocks)
            plane = idct(spectra, type=2, axis=1, norm="ortho").reshape(-1)
            planes.append(plane[:num_samples])
        return np.clip(np.stack(planes, axis=1), -1.0, 1.0)


_FILE_MAGIC = b"MPL1"
_FILE_HEADER = struct.Struct("<4sIBHI")  # magic, rate, channels, kbps, blocks


class Mp3LikeFile:
    """Container: a sequence of independently decodable Mp3Like blocks.

    This is what lives on disk for the simulated off-the-shelf player — the
    proprietary-format side of the VAD story.  Block granularity of ~0.5 s
    lets the player decode incrementally like a real streaming decoder.
    """

    def __init__(self, sample_rate: int, channels: int, bitrate_kbps: int,
                 blocks: list[bytes]):
        self.sample_rate = sample_rate
        self.channels = channels
        self.bitrate_kbps = bitrate_kbps
        self.blocks = blocks

    @classmethod
    def encode(
        cls,
        samples: np.ndarray,
        sample_rate: int,
        bitrate_kbps: int = 192,
        block_seconds: float = 0.5,
    ) -> "Mp3LikeFile":
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        channels = x.shape[1]
        codec = Mp3LikeCodec(bitrate_kbps)
        step = max(_BLOCK, int(round(block_seconds * sample_rate)))
        blocks = [
            codec.encode_block(x[pos : pos + step])
            for pos in range(0, len(x), step)
        ]
        return cls(sample_rate, channels, bitrate_kbps, blocks)

    def to_bytes(self) -> bytes:
        parts = [
            _FILE_HEADER.pack(
                _FILE_MAGIC,
                self.sample_rate,
                self.channels,
                self.bitrate_kbps,
                len(self.blocks),
            )
        ]
        for block in self.blocks:
            parts.append(struct.pack("<I", len(block)))
            parts.append(block)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Mp3LikeFile":
        magic, rate, channels, kbps, count = _FILE_HEADER.unpack_from(data, 0)
        if magic != _FILE_MAGIC:
            raise ValueError("not an Mp3Like file")
        offset = _FILE_HEADER.size
        blocks = []
        for _ in range(count):
            (length,) = struct.unpack_from("<I", data, offset)
            offset += 4
            blocks.append(data[offset : offset + length])
            offset += length
        return cls(rate, channels, kbps, blocks)

    def decode_all(self) -> np.ndarray:
        codec = Mp3LikeCodec(self.bitrate_kbps)
        return np.concatenate(
            [codec.decode_block(b) for b in self.blocks], axis=0
        )

    @property
    def total_bytes(self) -> int:
        return sum(len(b) for b in self.blocks)


register_codec(CodecID.MP3_LIKE, Mp3LikeCodec)
