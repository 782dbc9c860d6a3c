"""Modified Discrete Cosine Transform with TDAC overlap-add.

Implemented the standard way: fold the 2N windowed samples to N points and
take an orthonormal DCT-IV (via scipy).  With the sine window (which
satisfies the Princen–Bradley condition) consecutive 50 %-overlapped frames
reconstruct the interior of the signal exactly — the time-domain alias
cancellation property every MDCT codec rests on.  SciPy is imported at
the first transform, so a process that never runs the codec (raw PCM
channels, the control plane) never maps it.

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


@lru_cache(maxsize=8)
def sine_window(size: int) -> np.ndarray:
    """Sine window of ``size`` samples (Princen–Bradley compliant)."""
    n = np.arange(size)
    return np.sin(np.pi / size * (n + 0.5))


def _fold(frames: np.ndarray) -> np.ndarray:
    """Fold windowed 2N-sample frames to N points (last axis)."""
    half = frames.shape[-1] // 4
    a, b, c, d = (frames[..., i * half : (i + 1) * half] for i in range(4))
    out = np.empty(frames.shape[:-1] + (2 * half,))
    lo = np.negative(c[..., ::-1], out=out[..., :half])
    lo -= d
    np.subtract(a, b[..., ::-1], out=out[..., half:])
    return out


def _unfold(folded: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_fold`: N points back to 2N samples."""
    half = folded.shape[-1] // 2
    lo, hi = folded[..., :half], folded[..., half:]
    out = np.empty(folded.shape[:-1] + (4 * half,))
    out[..., :half] = hi
    np.negative(hi[..., ::-1], out=out[..., half : 2 * half])
    np.negative(lo[..., ::-1], out=out[..., 2 * half : 3 * half])
    np.negative(lo, out=out[..., 3 * half :])
    return out


def mdct(frames: np.ndarray) -> np.ndarray:
    """MDCT of already-windowed 2N-sample frames -> N coefficients each."""
    from scipy.fft import dct

    return dct(_fold(frames), type=4, axis=-1, norm="ortho")


def imdct(coeffs: np.ndarray) -> np.ndarray:
    """Inverse MDCT -> 2N time samples per frame (before windowing/OLA)."""
    from scipy.fft import dct

    return _unfold(dct(coeffs, type=4, axis=-1, norm="ortho"))


def mdct_analysis(signal: np.ndarray, n: int = 512) -> tuple[np.ndarray, int]:
    """Transform a signal into MDCT frames.

    ``signal`` is 1-D, or a stack of equal-length signals on the last
    axis (the planes of several blocks, transformed in one call).
    Returns ``(coeffs, length)`` where ``coeffs`` has shape
    ``(..., num_frames, n)`` and ``length`` is the original sample count
    needed by :func:`mdct_synthesis` to trim the padding.
    """
    x = np.asarray(signal, dtype=np.float64)
    lead, length = x.shape[:-1], x.shape[-1]
    body = ((length + n - 1) // n) * n  # content rounded up to frames
    padded = np.zeros(lead + (body + 2 * n,))
    padded[..., n : n + length] = x
    num_frames = body // n + 1
    # frame i is padded[..., i*n : i*n + 2n]: a read-only strided view
    step = padded.strides[-1]
    frames = as_strided(
        padded,
        shape=lead + (num_frames, 2 * n),
        strides=padded.strides[:-1] + (n * step, step),
        writeable=False,
    )
    windowed = frames * sine_window(2 * n)
    del frames, padded  # a group's planes: free them before the transform
    return mdct(windowed), length


def mdct_synthesis(coeffs: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`mdct_analysis`: overlap-add back to ``length``.

    ``coeffs`` is ``(num_frames, n)`` or a stack ``(..., num_frames, n)``
    of blocks with the same geometry, synthesised in one call.  With
    50 % overlap each output sample receives exactly two addends (frame
    *i*'s tail, frame *i+1*'s head), so the whole overlap-add is two
    vectorised adds onto a ``(..., num_frames + 1, n)`` grid — and
    because two-term float addition is commutative, the result is
    bit-identical to a per-frame overlap-add loop (the oracle in
    ``tests/oracles/codec.py``).
    """
    *lead, num_frames, n = coeffs.shape
    chunks = imdct(coeffs)
    chunks *= sine_window(2 * n)
    out = np.zeros((*lead, num_frames + 1, n))
    out[..., :-1, :] += chunks[..., :n]
    out[..., 1:, :] += chunks[..., n:]
    return out.reshape(*lead, -1)[..., n : n + length]
