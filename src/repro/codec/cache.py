"""Shared codec caches: decode (and encode) each payload once per host.

The paper's producer "does not need to maintain any state for the Ethernet
Speakers that listen in" (§2.3): adding a listener is free on the wire.  In
the simulator, though, every speaker on a channel receives a byte-identical
copy of the same data packet and — without this module — runs a full MDCT /
Rice decode of it independently, making fan-out O(N) in *host* CPU even
though the virtual machines are rightly charged their own cycles.

:class:`DecodeCache` is a bounded LRU keyed by

    (payload digest, payload length, codec id, audio parameters)

so N speakers tuned to one channel decode each block exactly once, while
channels carrying the same bytes under different parameters or codecs can
never share an entry (the isolation the tests pin down).  The cache stores
the *speaker-independent* part of the decode — the unity-gain PCM bytes and
the block's RMS level — so per-speaker transforms (gain, room coupling)
still run privately and bypass the cache entirely.

:class:`EncodeCache` is the origin-side mirror: a broadcasting station
looping a playlist, or fanning the same source into several channels,
re-encodes byte-identical raw payloads over and over.  The cache keys on
the raw payload digest plus codec id, parameters and quality, and stores
the finished wire bytes — identical input through an identical encoder
configuration is the only way to share an entry.

Virtual time is untouched: a cache hit skips the host-side numpy work only;
the simulated CPU cycles for the decode (or encode) are charged exactly as
on a miss, so cached and uncached runs are bit-identical in sim time.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass
class CacheStats:
    """Lookup counters of one :class:`DecodeCache` or :class:`EncodeCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class DecodedBlock:
    """The shareable result of decoding one payload at unity gain."""

    #: PCM bytes in the device's configured format
    pcm: bytes
    #: RMS of the decoded samples, or None when the block was empty
    #: (an empty block leaves the speaker's last RMS untouched)
    rms: Optional[float]


class DecodeCache:
    """Bounded LRU of :class:`DecodedBlock` entries.

    Parameters
    ----------
    max_entries:
        bound on cached blocks; beyond it the least-recently-used entry
        is evicted.  At the default 0.5 s producer chunking a few dozen
        entries cover every in-flight block of several channels.
    telemetry:
        a :class:`~repro.metrics.telemetry.Telemetry` registry; the hit /
        miss / eviction stats are registered as ``codec.cache.hits``
        etc.  ``None`` falls back to the process default.
    """

    def __init__(self, max_entries: int = 256, telemetry=None, name: str = ""):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1: {max_entries}")
        if telemetry is None:
            from repro.metrics.telemetry import get_telemetry

            telemetry = get_telemetry()
        self.max_entries = max_entries
        self.name = name
        self.stats = CacheStats()
        telemetry.register("codec.cache", name, self.stats)
        self._entries: "OrderedDict[Tuple, DecodedBlock]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        """Whether ``key`` is cached: a peek that leaves the stats and
        the LRU order alone."""
        return key in self._entries

    @staticmethod
    def key_for(payload, codec_id, params) -> Tuple:
        """The cache key for ``payload`` decoded as ``codec_id``/``params``.

        The digest collapses byte-identical multicast copies; codec id and
        the full :class:`~repro.audio.params.AudioParams` keep channels
        with different configurations strictly apart even when their
        payload bytes collide.
        """
        digest = hashlib.blake2b(payload, digest_size=16).digest()
        return (digest, len(payload), int(codec_id), params)

    def get(self, key: Tuple) -> Optional[DecodedBlock]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: Tuple, entry: DecodedBlock) -> None:
        entries = self._entries
        entries[key] = entry
        entries.move_to_end(key)
        if len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()


@dataclass(frozen=True)
class EncodedBlock:
    """The shareable result of encoding one raw payload."""

    #: finished wire bytes, exactly as the encoder emitted them
    wire: bytes


class EncodeCache:
    """Bounded LRU of :class:`EncodedBlock` entries, keyed on raw input.

    Mirrors :class:`DecodeCache` on the origin side.  The key carries the
    raw-payload blake2b digest *and* the codec id, the full audio
    parameters, and the encoder quality knob: two channels encoding the
    same source at different qualities (or with different codecs) can
    never share wire bytes.  Paths whose output is not a pure function of
    ``(payload, codec, params, quality)`` — RAW passthrough, synthetic
    size estimation — must bypass the cache entirely.
    """

    def __init__(self, max_entries: int = 256, telemetry=None, name: str = ""):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1: {max_entries}")
        if telemetry is None:
            from repro.metrics.telemetry import get_telemetry

            telemetry = get_telemetry()
        self.max_entries = max_entries
        self.name = name
        self.stats = CacheStats()
        telemetry.register("codec.encode_cache", name, self.stats)
        self._entries: "OrderedDict[Tuple, EncodedBlock]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key_for(payload, codec_id, params, quality) -> Tuple:
        """Key for ``payload`` encoded as ``codec_id``/``params`` at
        ``quality`` (the codec's rate knob: quality index or kbps)."""
        digest = hashlib.blake2b(payload, digest_size=16).digest()
        return (digest, len(payload), int(codec_id), params, quality)

    def get(self, key: Tuple) -> Optional[EncodedBlock]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: Tuple, entry: EncodedBlock) -> None:
        entries = self._entries
        entries[key] = entry
        entries.move_to_end(key)
        if len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
