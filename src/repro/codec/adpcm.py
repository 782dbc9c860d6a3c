"""IMA ADPCM: 4 bits per sample, the low-complexity option.

The paper keeps low-bit-rate channels uncompressed because Vorbis "introduces
latency and increases the workload on the sender" (§2.2).  ADPCM sits in
between: 4:1 versus 16-bit PCM at a tiny CPU cost, so the compression-policy
benchmark can explore the full latency/bitrate/CPU triangle.

Standard IMA tables (step-size and index adaptation); each block carries its
own predictor seed so blocks decode independently.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codec.base import BlockCodec, CodecID, register_codec

_STEP_TABLE = np.array(
    [
        7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
        41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
        190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
        724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
        2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
        6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
        16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
    ],
    dtype=np.int32,
)

_INDEX_TABLE = np.array(
    [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int32
)

_HEADER = struct.Struct("<BBIhB")  # codec, channels, samples, predictor, index


def _encode_channel(pcm: np.ndarray) -> tuple[bytes, int, int]:
    """Encode int16 samples; returns (nibbles bytes, predictor, index)."""
    predictor = int(pcm[0]) if len(pcm) else 0
    index = 0
    nibbles = np.zeros(len(pcm), dtype=np.uint8)
    for i, sample in enumerate(pcm):
        step = int(_STEP_TABLE[index])
        diff = int(sample) - predictor
        code = 0
        if diff < 0:
            code = 8
            diff = -diff
        if diff >= step:
            code |= 4
            diff -= step
        if diff >= step >> 1:
            code |= 2
            diff -= step >> 1
        if diff >= step >> 2:
            code |= 1
        # reconstruct exactly as the decoder will
        delta = step >> 3
        if code & 4:
            delta += step
        if code & 2:
            delta += step >> 1
        if code & 1:
            delta += step >> 2
        if code & 8:
            predictor -= delta
        else:
            predictor += delta
        predictor = max(-32768, min(32767, predictor))
        index = int(np.clip(index + _INDEX_TABLE[code], 0, 88))
        nibbles[i] = code
    if len(nibbles) % 2:
        nibbles = np.append(nibbles, 0)
    packed = (nibbles[0::2] << 4) | nibbles[1::2]
    first = int(pcm[0]) if len(pcm) else 0
    return packed.astype(np.uint8).tobytes(), first, 0


def _decode_channel(
    data: bytes, count: int, predictor: int, index: int
) -> np.ndarray:
    packed = np.frombuffer(data, dtype=np.uint8)
    nibbles = np.empty(len(packed) * 2, dtype=np.uint8)
    nibbles[0::2] = packed >> 4
    nibbles[1::2] = packed & 0x0F
    out = np.zeros(count, dtype=np.int32)
    # decoding must replay the encoder's state machine: the very first
    # nibble was produced with predictor == first sample
    pred = predictor
    idx = index
    for i in range(count):
        code = int(nibbles[i])
        step = int(_STEP_TABLE[idx])
        delta = step >> 3
        if code & 4:
            delta += step
        if code & 2:
            delta += step >> 1
        if code & 1:
            delta += step >> 2
        if code & 8:
            pred -= delta
        else:
            pred += delta
        pred = max(-32768, min(32767, pred))
        idx = int(np.clip(idx + _INDEX_TABLE[code], 0, 88))
        out[i] = pred
    return out


class AdpcmCodec(BlockCodec):
    """IMA ADPCM block codec (self-seeding blocks, mono or stereo)."""

    codec_id = CodecID.ADPCM

    def _encode_one(self, samples: np.ndarray) -> bytes:
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        num_samples, channels = x.shape
        pcm = np.clip(np.round(x * 32767.0), -32768, 32767).astype(np.int32)
        bodies = []
        headers = []
        for ch in range(channels):
            body, predictor, index = _encode_channel(pcm[:, ch])
            headers.append(
                _HEADER.pack(
                    int(self.codec_id), channels, num_samples, predictor, index
                )
            )
            bodies.append(body)
        return b"".join(h + b for h, b in zip(headers, bodies))

    def _decode_one(self, data: bytes) -> np.ndarray:
        offset = 0
        planes = []
        channels = 1
        while offset < len(data):
            codec, channels, num_samples, predictor, index = _HEADER.unpack_from(
                data, offset
            )
            if codec != int(self.codec_id):
                raise ValueError(f"not an adpcm block (codec id {codec})")
            offset += _HEADER.size
            nbytes = (num_samples + 1) // 2
            plane = _decode_channel(
                data[offset : offset + nbytes], num_samples, predictor, index
            )
            offset += nbytes
            planes.append(plane.astype(np.float64) / 32767.0)
        return np.stack(planes, axis=1)


register_codec(CodecID.ADPCM, AdpcmCodec)
