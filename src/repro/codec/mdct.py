"""Modified Discrete Cosine Transform with TDAC overlap-add.

Implemented the standard way: fold the 2N windowed samples to N points and
take an orthonormal DCT-IV (via scipy).  With the sine window (which
satisfies the Princen–Bradley condition) consecutive 50 %-overlapped frames
reconstruct the interior of the signal exactly — the time-domain alias
cancellation property every MDCT codec rests on.

``mdct_analysis``/``mdct_synthesis`` operate on self-contained blocks: the
block is zero-padded by half a frame on each side, so every packet on the
wire decodes independently of its neighbours.  That matches the Ethernet
Speaker protocol's statelessness — a speaker that tunes in mid-stream can
decode the very next data packet (§2.3).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.fft import dct


@lru_cache(maxsize=8)
def sine_window(size: int) -> np.ndarray:
    """Sine window of ``size`` samples (Princen–Bradley compliant)."""
    n = np.arange(size)
    return np.sin(np.pi / size * (n + 0.5))


def _fold(frames: np.ndarray) -> np.ndarray:
    """Fold windowed 2N-sample frames to N points (last axis)."""
    two_n = frames.shape[-1]
    n = two_n // 2
    half = n // 2
    a = frames[..., 0:half]
    b = frames[..., half : 2 * half]
    c = frames[..., 2 * half : 3 * half]
    d = frames[..., 3 * half :]
    return np.concatenate(
        [-c[..., ::-1] - d, a - b[..., ::-1]], axis=-1
    )


def _unfold(folded: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_fold`: N points back to 2N samples."""
    half = folded.shape[-1] // 2
    neg = -folded  # one negation serves three quarters
    n1 = neg[..., :half]
    return np.concatenate(
        [folded[..., half:], neg[..., half:][..., ::-1], n1[..., ::-1], n1],
        axis=-1,
    )


def mdct(frames: np.ndarray) -> np.ndarray:
    """MDCT of already-windowed 2N-sample frames -> N coefficients each."""
    return dct(_fold(frames), type=4, axis=-1, norm="ortho")


def imdct(coeffs: np.ndarray) -> np.ndarray:
    """Inverse MDCT -> 2N time samples per frame (before windowing/OLA)."""
    return _unfold(dct(coeffs, type=4, axis=-1, norm="ortho"))


def mdct_analysis(signal: np.ndarray, n: int = 512) -> tuple[np.ndarray, int]:
    """Transform a 1-D signal into MDCT frames.

    Returns ``(coeffs, length)`` where ``coeffs`` has shape
    ``(num_frames, n)`` and ``length`` is the original sample count needed
    by :func:`mdct_synthesis` to trim the padding.
    """
    x = np.asarray(signal, dtype=np.float64)
    length = len(x)
    body = ((length + n - 1) // n) * n  # content rounded up to frames
    padded = np.zeros(body + 2 * n)
    padded[n : n + length] = x
    num_frames = body // n + 1
    # frame i is padded[i*n : i*n + 2n]: a read-only strided view
    frames = as_strided(
        padded,
        shape=(num_frames, 2 * n),
        strides=(n * padded.strides[0], padded.strides[0]),
        writeable=False,
    )
    return mdct(frames * sine_window(2 * n)), length


def mdct_synthesis(coeffs: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`mdct_analysis`: overlap-add back to ``length``.

    With 50 % overlap each output sample receives exactly two addends
    (frame *i*'s tail, frame *i+1*'s head), so the whole overlap-add is
    two vectorised adds onto an ``(num_frames + 1, n)`` grid — and
    because two-term float addition is commutative, the result is
    bit-identical to a per-frame overlap-add loop (the oracle in
    ``tests/oracles/codec.py``).
    """
    num_frames, n = coeffs.shape
    chunks = imdct(coeffs) * sine_window(2 * n)[None, :]
    out = np.zeros((num_frames + 1, n))
    out[:-1] += chunks[:, :n]
    out[1:] += chunks[:, n:]
    return out.reshape(-1)[n : n + length]

