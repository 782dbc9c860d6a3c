"""Codec interface and registry.

Data packets on the wire carry a one-byte codec id (see
:mod:`repro.core.protocol`); speakers look the decoder up here.  Every codec
block is self-describing — channels and sample counts live in the block
header — so a receive-only speaker needs no out-of-band decoder state beyond
the periodic control packet (§2.3).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Hashable, List

import numpy as np

from repro.audio.encodings import encode_samples
from repro.codec.cache import DecodedBlock
from repro.codec.queue import QUEUE


class CodecID(enum.IntEnum):
    """Wire identifiers for payload encodings."""

    RAW = 0         # PCM exactly as read from the VAD (interpret via AudioParams)
    VORBIS_LIKE = 1 # MDCT psychoacoustic codec (the paper's Ogg Vorbis role)
    ADPCM = 2       # IMA ADPCM, 4 bits/sample
    MP3_LIKE = 3    # DCT-II fixed-rate codec (the tandem-coding partner)


class BlockCodec:
    """Interface: encode/decode one self-contained block of samples.

    ``encode_block`` takes float samples shaped ``(frames, channels)`` in
    [-1, 1] and returns wire bytes; ``decode_block`` inverts it.  Blocks are
    independent: losing one packet never corrupts the next (required for a
    multicast receiver with no retransmission path).

    Both run through :data:`~repro.codec.queue.QUEUE`: a block is
    computed together with every block of its group handed over so far,
    by the group kernels ``encode_blocks``/``decode_blocks``.  A codec
    computes its blocks one at a time (``_encode_one`` / ``_decode_one``)
    unless it overrides them.
    """

    codec_id: CodecID

    def encode_block(self, samples: np.ndarray) -> bytes:
        """The block's wire bytes."""
        return QUEUE.take(self, "encode", samples)

    def decode_block(self, data: bytes, params=None):
        """The block's samples; with ``params`` (the device's
        :class:`~repro.audio.params.AudioParams`) a
        :class:`~repro.codec.cache.DecodedBlock` of PCM in that format."""
        return QUEUE.take(self, "decode", data, params)

    def batch_key(self, op: str) -> Hashable:
        """Codecs with equal keys compute ``op`` ("encode"/"decode")
        identically, so their blocks share groups.  By default every
        codec instance is its own group."""
        return id(self)

    def encode_blocks(self, blocks: List[np.ndarray]) -> list:
        """Each block's wire bytes."""
        return [self._encode_one(b) for b in blocks]

    def decode_blocks(self, payloads: list, params=None) -> list:
        """Each payload's :meth:`decode_block` result."""
        out = [self._decode_one(data) for data in payloads]
        if params is None:
            return out
        return [decoded_blocks(s[None], params)[0] for s in out]

    def _encode_one(self, samples: np.ndarray) -> bytes:
        raise NotImplementedError

    def _decode_one(self, data: bytes) -> np.ndarray:
        raise NotImplementedError


def decoded_blocks(samples: np.ndarray, params) -> List[DecodedBlock]:
    """Blocks of decoded samples ``(blocks, frames, channels)`` as PCM in
    ``params``' format plus each block's RMS, in one conversion."""
    n, frames, channels = samples.shape
    pcm = encode_samples(samples.reshape(-1, channels), params)
    size = len(pcm) // n
    if frames == 0:
        # an empty block leaves the speaker's last RMS untouched
        return [DecodedBlock(pcm=b"", rms=None)] * n
    rms = np.sqrt(np.mean(np.square(samples.reshape(n, -1)), axis=1))
    return [DecodedBlock(pcm=pcm[i * size : (i + 1) * size], rms=r)
            for i, r in enumerate(rms.tolist())]


_REGISTRY: Dict[CodecID, Callable[..., BlockCodec]] = {}


def register_codec(codec_id: CodecID, factory: Callable[..., BlockCodec]):
    _REGISTRY[codec_id] = factory


def get_codec(codec_id: CodecID, **kwargs) -> BlockCodec:
    """Instantiate the codec for a wire id (kwargs reach the constructor)."""
    try:
        factory = _REGISTRY[CodecID(codec_id)]
    except KeyError:
        raise ValueError(f"no codec registered for id {codec_id}") from None
    return factory(**kwargs)
