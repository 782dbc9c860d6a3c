"""Lossy audio codecs built from scratch.

The paper compresses rebroadcast streams with Ogg Vorbis at maximum quality
(§2.2).  Vorbis itself is out of scope to reimplement faithfully, so
:class:`~repro.codec.vorbislike.VorbisLikeCodec` is a real MDCT transform
codec with a Bark-band psychoacoustic bit allocator and a 0–10 quality index
— genuinely lossy, genuinely decodable, with the same knobs the paper turns.
:class:`~repro.codec.mp3like.Mp3LikeCodec` is a *different* lossy codec
(DCT-II, fixed rate ladder) standing in for the MP3 sources, so the paper's
tandem-coding concern (two different lossy algorithms back to back) is
reproducible.  :mod:`repro.codec.cost` models the CPU cycles each codec burns
inside the simulation (Figure 4).
"""

from repro.codec.base import CodecID, get_codec
from repro.codec.cache import (
    CacheStats,
    DecodeCache,
    DecodedBlock,
    EncodeCache,
    EncodedBlock,
)
from repro.codec.vorbislike import VorbisLikeCodec
from repro.codec.adpcm import AdpcmCodec
from repro.codec.mp3like import Mp3LikeCodec, Mp3LikeFile
from repro.codec.cost import CodecCostModel, DEFAULT_COSTS

__all__ = [
    "CodecID",
    "get_codec",
    "CacheStats",
    "DecodeCache",
    "DecodedBlock",
    "EncodeCache",
    "EncodedBlock",
    "VorbisLikeCodec",
    "AdpcmCodec",
    "Mp3LikeCodec",
    "Mp3LikeFile",
    "CodecCostModel",
    "DEFAULT_COSTS",
]
