"""Scalar reference arms for the batched codec kernels.

``scalar_encode_block``/``scalar_decode_block`` run a codec block the
way the codecs did before :mod:`repro.codec.batch`: the header, then the
per-frame ``_reference_*`` loops for every frame.  They take the codec
as their first argument, so a whole-station test can install them with
``monkeypatch.setattr(VorbisLikeCodec, "encode_block",
scalar_encode_block)`` and run the scalar arm end to end.
"""

import numpy as np

from repro.codec.mdct import imdct, sine_window


def scalar_encode_block(codec, samples) -> bytes:
    header, frames, side = codec._analyse(samples)
    return header + codec._reference_encode(frames, side)


def scalar_decode_block(codec, data) -> np.ndarray:
    return codec._decode(data, codec._reference_decode_bands)


def reference_mdct_synthesis(coeffs: np.ndarray, length: int) -> np.ndarray:
    """The per-frame overlap-add loop the vectorised
    :func:`~repro.codec.mdct.mdct_synthesis` must match bit for bit."""
    num_frames, n = coeffs.shape
    out = np.zeros((num_frames + 1) * n)
    chunks = imdct(coeffs) * sine_window(2 * n)[None, :]
    for i in range(num_frames):
        out[i * n : i * n + 2 * n] += chunks[i]
    return out[n : n + length]
