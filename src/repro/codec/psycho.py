"""A small Bark-band psychoacoustic model.

Provides two things to the transform codecs:

* a partition of MDCT bins into critical-band-ish groups (Bark scale), and
* a per-band masking threshold from a triangular spreading function plus an
  absolute threshold in quiet.

The bit allocator then gives each band enough quantiser levels to keep its
quantisation noise a quality-dependent margin below the masker — this is the
mechanism behind the paper's "quality index" knob: at index 10 the margin is
large and "the algorithm throws away as little data as possible" (§2.2).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def bark(freq_hz: np.ndarray) -> np.ndarray:
    """Traunmüller's Bark-scale approximation."""
    f = np.asarray(freq_hz, dtype=np.float64)
    return 13.0 * np.arctan(0.00076 * f) + 3.5 * np.arctan((f / 7500.0) ** 2)


@lru_cache(maxsize=32)
def band_edges(sample_rate: int, n_bins: int, bands_per_bark: float = 1.0):
    """Bin index boundaries grouping ``n_bins`` MDCT bins into Bark bands.

    Returns an int array ``edges`` with ``edges[0] == 0`` and
    ``edges[-1] == n_bins``; band *b* covers ``edges[b]:edges[b+1]``.
    """
    centre_freqs = (np.arange(n_bins) + 0.5) * sample_rate / (2.0 * n_bins)
    z = bark(centre_freqs)
    n_bands = max(1, int(np.ceil(z[-1] * bands_per_bark)))
    targets = np.linspace(0.0, z[-1], n_bands + 1)
    edges = np.searchsorted(z, targets)
    edges[0] = 0
    edges[-1] = n_bins
    edges = np.unique(edges)
    return edges.astype(np.int64)


@lru_cache(maxsize=64)
def _taper(n_bands: int, quality: int) -> np.ndarray:
    """Bits taken off each band: high bands get progressively fewer
    bits at low quality."""
    taper = np.linspace(0.0, (10 - quality) * 0.35, n_bands)
    bits = np.round(taper).astype(np.int64)
    bits.flags.writeable = False
    return bits


class PsychoModel:
    """Masking-threshold estimation over Bark bands."""

    #: dB of masking rolloff per Bark of distance (symmetric triangle —
    #: a simplification of the usual -25/+10 dB/Bark asymmetric slopes)
    SPREAD_DB_PER_BARK = 15.0

    #: absolute threshold in quiet, as signal power (full scale == 1.0)
    QUIET_POWER = 1e-10

    def __init__(self, sample_rate: int, n_bins: int):
        self.sample_rate = sample_rate
        self.n_bins = n_bins
        self.edges = band_edges(sample_rate, n_bins)
        self.n_bands = len(self.edges) - 1
        self._counts = np.diff(self.edges)
        centre_bins = (self.edges[:-1] + self.edges[1:]) / 2.0
        centre_freqs = centre_bins * sample_rate / (2.0 * n_bins)
        z = bark(centre_freqs)
        distance = np.abs(z[:, None] - z[None, :])
        self._spread = 10.0 ** (-self.SPREAD_DB_PER_BARK * distance / 10.0)

    def band_energies(self, coeffs: np.ndarray) -> np.ndarray:
        """Mean power per band; ``coeffs`` may be one frame ``(n_bins,)``
        or a whole block ``(frames, n_bins)`` (bands on the last axis)."""
        power = coeffs * coeffs
        sums = np.add.reduceat(power, self.edges[:-1], axis=-1)
        return sums / self._counts

    #: how far below the (spread) masking signal the threshold sits; real
    #: models vary this with tonality, we use a fixed tone-like value
    MASK_DROP_DB = 18.0

    def masking_threshold(self, energies: np.ndarray) -> np.ndarray:
        """Per-band masked threshold: spread energies, dropped by the
        masking offset, floored at the threshold in quiet.

        ``energies`` is ``(n_bands,)`` or ``(frames, n_bands)``.  The
        spreading matrix is applied as a broadcast multiply plus a
        last-axis reduction instead of ``@``: BLAS picks different
        kernels (and rounding orders) for matrix-vector and
        matrix-matrix shapes, and the batched encode path must allocate
        bit-identically to the per-frame reference path.
        """
        e = np.asarray(energies, dtype=np.float64)
        spread = (self._spread * e[..., None, :]).sum(axis=-1)
        threshold = spread * 10.0 ** (-self.MASK_DROP_DB / 10.0)
        return np.maximum(threshold, self.QUIET_POWER)

    def allocate_widths(
        self, energies: np.ndarray, quality: int
    ) -> np.ndarray:
        """Quantiser widths (bits/coefficient, 0 = band dropped) per band.

        ``quality`` 0..10 sets the SNR margin each audible band must reach
        below its masker; inaudible bands (energy under the masking
        threshold) are dropped entirely.
        """
        if not 0 <= quality <= 10:
            raise ValueError(f"quality must be 0..10, got {quality}")
        maskers = self.masking_threshold(energies)
        audible = energies > maskers * 10.0 ** (-(2.0 + quality) / 10.0)
        # noise-to-mask budget: quantisation noise must sit under the masker
        # with a quality-dependent safety margin, so each band needs an SNR
        # of (energy-over-masker) + margin decibels — ~6 dB per bit.  The
        # ratio is positive (maskers sit at or above the threshold in
        # quiet), so the log never sees a zero.
        smr_db = 10.0 * np.log10(np.maximum(energies, 1e-30) / maskers)
        margin_db = 3.0 * quality - 8.0
        needed_db = np.maximum(smr_db, 0.0) + margin_db
        widths = np.ceil(needed_db / 6.02).astype(np.int64) + 1
        widths = np.maximum(widths - _taper(self.n_bands, quality), 2)
        widths = np.where(audible, widths, 0)
        return np.minimum(widths, 15)  # already >= 0
