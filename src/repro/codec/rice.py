"""Rice/Golomb entropy coding for quantised transform coefficients.

The fixed-width band packing in :mod:`repro.codec.batch` is fast but
pays the band's worst case for every coefficient.  Rice coding (unary
quotient + k-bit remainder) exploits the Laplacian shape of quantised
MDCT residue — the same trick FLAC and Shorten use.  Both directions are
vectorised: the band encoder in :mod:`repro.codec.batch` scatters
unary/remainder bits into one bitplane, and :func:`rice_decode`
recovers the unary terminators with a cumsum over ``unpackbits`` plus
binary lifting.

Signed values are zigzag-mapped to unsigned first.
"""

from __future__ import annotations

import numpy as np


def zigzag(values: np.ndarray) -> np.ndarray:
    """Signed -> unsigned: 0,-1,1,-2,2 ... -> 0,1,2,3,4 ..."""
    v = np.asarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def unzigzag(values: np.ndarray) -> np.ndarray:
    u = np.asarray(values, dtype=np.uint64)
    return ((u >> np.uint64(1)).astype(np.int64)
            ^ -(u & np.uint64(1)).astype(np.int64))


def rice_decode(data: bytes, k: int, count: int) -> np.ndarray:
    """Decode ``count`` signed ints from a Rice stream with parameter ``k``.

    Vectorised unary scan: a cumsum over the unpacked bitplane counts
    the ones, and because value *i*'s remainder always ends ``k`` bits
    after its terminating one, the index of the next terminator is a
    pure function of the previous one's — iterated for all values at
    once by binary lifting instead of walking bit by bit.

    Any ``k`` a band tag can carry (0..127) decodes, and a malformed
    stream fails the way the per-bit walk that defines the format does
    (``reference_rice_decode`` in ``tests/oracles/codec.py``): with
    ``k > 0``, ``ValueError("rice stream truncated")`` at the first
    value that runs out of bits, or the ``OverflowError`` a ``uint64``
    store raises at the first value of 2**64 or more, whichever comes
    first.  With ``k == 0`` truncation is lenient: running off the end
    yields one final zero-run value, then zeros.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    n_bits = len(bits)
    ones = np.flatnonzero(bits)
    m = len(ones)
    if k == 0:
        # no remainders: value i is the gap between terminators i-1 and i
        out = np.zeros(count, dtype=np.uint64)
        take = min(count, m)
        if take:
            out[:take] = (np.diff(ones[:take], prepend=-1) - 1).astype(
                np.uint64
            )
        if count > m:
            tail_start = int(ones[m - 1]) + 1 if m else 0
            out[m] = n_bits - tail_start
        return unzigzag(out)
    if m == 0:
        raise ValueError("rice stream truncated")
    # ones_before[j] = ones in bits[0..j]; value i's terminator is the
    # c_i-th one with c_{i+1} = ones_before[ones[c_i] + k] and c_0 = 0
    # (skip the k remainder bits, count the ones they swallowed).  State
    # m absorbs "ran out of terminators".
    ones_before = np.cumsum(bits)
    nxt = np.full(m + 1, m, dtype=np.int64)
    reachable = ones + k < n_bits
    nxt[:m][reachable] = ones_before[ones[reachable] + k]
    c = np.zeros(count, dtype=np.int64)
    if count > 1:
        idx = np.arange(count)
        jump = nxt
        for s in range((count - 1).bit_length()):
            hop = ((idx >> s) & 1).astype(bool)
            c[hop] = jump[c[hop]]
            jump = jump[jump]
    term = ones[np.minimum(c, m - 1)]
    # the first value with no terminator left or a remainder past the end
    short = (c >= m) | (term + k >= n_bits)
    whole = int(np.argmax(short)) if short.any() else count
    term = term[:whole]
    starts = np.empty(whole, dtype=np.int64)
    starts[:1] = 0
    starts[1:] = term[:-1] + 1 + k
    q = (term - starts).astype(np.uint64)
    if k + n_bits.bit_length() > 64:
        # q < 2**bit_length(n_bits): only here can a value reach 2**64,
        # through quotient bits shifted past bit 63 or (k > 64)
        # remainder bits above it
        big = q > 0 if k >= 64 else (q >> np.uint64(64 - k)) > 0
        if k > 64:
            high = term[:, None] + 1 + np.arange(k - 64)
            big |= bits[high].any(axis=1)
        if big.any():
            # the walk stores each value into a uint64 array; any value
            # of 2**64 or more fails that store with the same error
            np.zeros(1, dtype=np.uint64)[0] = 1 << 64
    if whole < count:
        raise ValueError("rice stream truncated")
    # low 64 remainder bits; for k > 64 the higher ones are zero here
    rem = np.zeros(count, dtype=np.uint64)
    for j in range(k):
        rem = (rem << np.uint64(1)) | bits[term + 1 + j].astype(np.uint64)
    if k < 64:
        rem |= q << np.uint64(k)
    return unzigzag(rem)
