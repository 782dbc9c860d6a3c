"""PCM sample codecs: linear formats and G.711 mu-law / A-law.

All functions translate between wire bytes and float64 arrays in [-1, 1]
shaped ``(frames, channels)``.  The G.711 implementations follow the ITU-T
segmented companding tables (8-bit codewords, 14/13-bit linear dynamic
range), written with numpy so a minute of CD audio converts in milliseconds.
"""

from __future__ import annotations

import numpy as np

from repro.audio.params import AudioEncoding, AudioParams

_MU = 255.0
_ALAW_A = 87.6


def _to_float(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _clip(samples: np.ndarray) -> np.ndarray:
    return np.clip(_to_float(samples), -1.0, 1.0)


def mulaw_encode(samples: np.ndarray) -> np.ndarray:
    """Float [-1,1] -> mu-law codewords (uint8, bit-inverted per G.711)."""
    x = _clip(samples)
    magnitude = np.log1p(_MU * np.abs(x)) / np.log1p(_MU)
    quantized = np.floor(magnitude * 127.0 + 0.5).astype(np.int16)
    codes = np.where(x < 0, 0x80 | quantized, quantized).astype(np.uint8)
    return (~codes) & 0xFF  # G.711 transmits the complement


def mulaw_decode(codes: np.ndarray) -> np.ndarray:
    """Mu-law codewords -> float [-1,1]."""
    codes = (~np.asarray(codes, dtype=np.uint8)) & 0xFF
    sign = np.where(codes & 0x80, -1.0, 1.0)
    magnitude = (codes & 0x7F).astype(np.float64) / 127.0
    return sign * (np.expm1(magnitude * np.log1p(_MU)) / _MU)


def alaw_encode(samples: np.ndarray) -> np.ndarray:
    """Float [-1,1] -> A-law codewords (uint8, even bits inverted)."""
    x = _clip(samples)
    absx = np.abs(x)
    small = absx < (1.0 / _ALAW_A)
    compressed = np.where(
        small,
        (_ALAW_A * absx) / (1.0 + np.log(_ALAW_A)),
        (1.0 + np.log(_ALAW_A * np.maximum(absx, 1e-12)))
        / (1.0 + np.log(_ALAW_A)),
    )
    quantized = np.floor(compressed * 127.0 + 0.5).astype(np.int16)
    codes = np.where(x < 0, quantized, 0x80 | quantized).astype(np.uint8)
    return codes ^ 0x55  # alternate-bit inversion


def alaw_decode(codes: np.ndarray) -> np.ndarray:
    """A-law codewords -> float [-1,1]."""
    codes = np.asarray(codes, dtype=np.uint8) ^ 0x55
    sign = np.where(codes & 0x80, 1.0, -1.0)
    compressed = (codes & 0x7F).astype(np.float64) / 127.0
    small = compressed < (1.0 / (1.0 + np.log(_ALAW_A)))
    magnitude = np.where(
        small,
        compressed * (1.0 + np.log(_ALAW_A)) / _ALAW_A,
        np.exp(compressed * (1.0 + np.log(_ALAW_A)) - 1.0) / _ALAW_A,
    )
    return sign * magnitude


def encode_samples(samples: np.ndarray, params: AudioParams) -> bytes:
    """Float samples shaped (frames,) or (frames, channels) -> wire bytes.

    Mono input is duplicated across a stereo device's channels.
    """
    x = _clip(samples)
    if x.ndim == 1:
        x = x[:, np.newaxis]
    widen = x.shape[1] == 1 and params.channels == 2
    if not widen and x.shape[1] != params.channels:
        raise ValueError(
            f"sample array has {x.shape[1]} channels, device expects "
            f"{params.channels}"
        )
    codes = _quantise(x, params.encoding)
    if widen:
        # duplicate the integer codes, not the floats: quantising is
        # per sample, and this keeps stereo-sized float temporaries out
        codes = np.repeat(codes, 2, axis=1)
    return codes.tobytes()  # C order interleaves the channels


def _quantise(x: np.ndarray, enc: AudioEncoding) -> np.ndarray:
    """Clipped float samples -> wire codes of the same shape.  ``x`` is
    the caller's scratch copy and is overwritten."""
    if enc is AudioEncoding.SLINEAR16:
        np.rint(np.multiply(x, 32767.0, out=x), out=x)
        return x.astype("<i2")
    if enc is AudioEncoding.SLINEAR8:
        np.rint(np.multiply(x, 127.0, out=x), out=x)
        return x.astype(np.int8)
    if enc is AudioEncoding.ULINEAR8:
        np.rint(np.multiply(x, 127.0, out=x), out=x)
        return np.add(x, 128.0, out=x).astype(np.uint8)
    if enc is AudioEncoding.ULAW:
        return mulaw_encode(x)
    if enc is AudioEncoding.ALAW:
        return alaw_encode(x)
    raise ValueError(f"unsupported encoding {enc}")


def decode_samples(data: bytes, params: AudioParams) -> np.ndarray:
    """Wire bytes -> float array shaped (frames, channels) in [-1, 1]."""
    enc = params.encoding
    if enc is AudioEncoding.SLINEAR16:
        flat = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32767.0
    elif enc is AudioEncoding.SLINEAR8:
        flat = np.frombuffer(data, dtype=np.int8).astype(np.float64) / 127.0
    elif enc is AudioEncoding.ULINEAR8:
        raw = np.frombuffer(data, dtype=np.uint8).astype(np.float64)
        flat = (raw - 128.0) / 127.0
    elif enc is AudioEncoding.ULAW:
        flat = mulaw_decode(np.frombuffer(data, dtype=np.uint8))
    elif enc is AudioEncoding.ALAW:
        flat = alaw_decode(np.frombuffer(data, dtype=np.uint8))
    else:
        raise ValueError(f"unsupported encoding {enc}")
    frames = len(flat) // params.channels
    return flat[: frames * params.channels].reshape(frames, params.channels)
