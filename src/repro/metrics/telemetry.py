"""Process-wide but injectable telemetry: counters, gauges, histograms.

The paper's evaluation (§3) argues from quantities you can only get by
instrumenting the running system — per-hop latency, jitter, buffer levels,
CPU figures.  This module is that instrumentation layer:

* a :class:`Telemetry` registry holding named :class:`Gauge` and
  fixed-bucket :class:`Histogram` instruments, plus a
  :class:`~repro.metrics.trace.Tracer` bound to the same virtual clock;
* **counters that are read, not incremented**: each component counts its
  facts once, in its own ``stats`` ints, and hands that object to
  :meth:`Telemetry.register` at construction.  The registry reads the
  ints live whenever :attr:`~Telemetry.counters` is asked for, so the hot
  paths carry no second counter;
* a **disabled mode** (:data:`NULL`) whose gauges and histograms are
  shared no-op singletons and whose ``register`` keeps nothing, so
  telemetry off costs nothing beyond the component's own ints;
* :class:`PipelineReport`, the derived end-to-end view (latency
  percentiles, jitter, loss conservation, compression) that
  :class:`~repro.core.system.EthernetSpeakerSystem` exposes and the
  benchmarks consume.

Components take a ``telemetry=None`` constructor argument and fall back to
the process-wide default (:func:`get_telemetry`), which starts as
:data:`NULL`.  Tests and systems inject their own registry instead of
mutating the global one; :func:`set_default` exists for whole-process runs
(CLI tools, notebooks).

Instrument names are dotted paths with an optional ``[label]`` suffix
(``"rebroadcaster.data_sent[ch1]"``: kind, stats field, label);
:meth:`Telemetry.total` sums a metric across labels, which is what the
conservation checks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.metrics.report import ascii_table
from repro.metrics.trace import NULL_TRACER, Tracer


def log_buckets(lo: float, hi: float, per_decade: int = 4) -> Tuple[float, ...]:
    """Geometric histogram bounds from ``lo`` to at least ``hi``.

    Deterministic and cheap; the default latency buckets span 1 µs to
    10 s with four buckets per decade.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    bounds = []
    step = 10.0 ** (1.0 / per_decade)
    edge = lo
    while edge < hi * (1.0 + 1e-12):
        bounds.append(edge)
        edge *= step
    bounds.append(edge)
    return tuple(bounds)


def int_fields(stats) -> Tuple[str, ...]:
    """The counters of a stats dataclass (class or instance): its ``int``
    fields, in declaration order."""
    return tuple(f.name for f in dc_fields(stats) if f.type in (int, "int"))


def sum_stats(cls, objs: Iterable, get: Callable = getattr):
    """A fresh ``cls`` whose ``int`` fields are summed field by field over
    ``objs``; every other field keeps its default.  ``get(obj, field)``
    reads one object's count (``getattr`` for instances of ``cls``)."""
    objs = list(objs)
    return cls(**{name: sum(get(obj, name) for obj in objs)
                  for name in int_fields(cls)})


#: default bounds for time-valued histograms (seconds): 1 µs .. 10 s
DEFAULT_TIME_BUCKETS = log_buckets(1e-6, 10.0, per_decade=4)
#: default bounds for size/depth-valued histograms
DEFAULT_DEPTH_BUCKETS = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)


class Gauge:
    """A point-in-time value; remembers its min and max."""

    __slots__ = ("name", "value", "min", "max", "samples")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples = 0

    def set(self, value: float) -> None:
        self.value = value
        self.samples += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    ``bounds`` are ascending bucket upper edges; one overflow bucket
    catches everything above the last edge.  Exact min/max/sum are kept
    alongside the buckets so reports can bracket the interpolation.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "vmin", "vmax")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be ascending and non-empty")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        # linear scan: bounds lists are short and mostly hit early; a
        # bisect would pay more in call overhead at these sizes
        for i, edge in enumerate(self.bounds):
            if value <= edge:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile (0..100), interpolated inside
        the containing bucket and clamped to the exact observed range."""
        if self.count == 0:
            return 0.0
        target = (p / 100.0) * self.count
        seen = 0
        lower = 0.0
        for i, n in enumerate(self.buckets):
            upper = self.bounds[i] if i < len(self.bounds) else self.vmax
            if n and seen + n >= target:
                frac = (target - seen) / n
                est = lower + (upper - lower) * max(0.0, min(1.0, frac))
                return max(self.vmin, min(self.vmax, est))
            seen += n
            lower = upper
        return self.vmax

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


# -- the disabled mode ----------------------------------------------------------


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null", (1.0,))


class Telemetry:
    """The registry.  One per system under test (injectable), or one per
    process via :func:`set_default`.

    Parameters
    ----------
    clock:
        zero-argument callable returning virtual seconds; usually
        ``lambda: sim.now`` (or pass ``sim=``).
    enabled:
        a disabled registry hands out shared no-op instruments and a
        disabled tracer, and :meth:`register` keeps no reference; every
        recording call degrades to a constant-time no-op so hot paths can
        be instrumented unconditionally.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 sim=None, enabled: bool = True):
        if sim is not None and clock is None:
            clock = lambda: sim.now  # noqa: E731
        self.clock = clock or (lambda: 0.0)
        self.enabled = enabled
        #: counter name -> the (object, attribute) pairs summed into it
        self._sources: Dict[str, List[Tuple[object, str]]] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.tracer = (
            Tracer(clock=self.clock) if enabled else NULL_TRACER
        )

    # -- counters: registered component ints, read live ----------------------

    def register(self, kind: str, label: Optional[str], obj,
                 fields: Optional[Mapping[str, str]] = None) -> None:
        """Publish ``obj``'s ints as counters ``kind.field[label]``.

        ``fields`` maps counter field -> attribute of ``obj``; by default
        it is every ``int`` field of the dataclass ``obj``, under its own
        name.  Nothing is copied: :attr:`counters` reads the attributes
        when asked.  Objects registered under one name sum, so two
        components sharing a label report one total.  A disabled
        registry keeps no reference.
        """
        if not self.enabled:
            return
        if fields is None:
            fields = {name: name for name in int_fields(obj)}
        suffix = f"[{label}]" if label else ""
        for name, attr in fields.items():
            self._sources.setdefault(f"{kind}.{name}{suffix}", []).append(
                (obj, attr))

    @property
    def counters(self) -> Dict[str, int]:
        """Every registered counter's current value, by name."""
        return {
            name: sum(getattr(obj, attr) for obj, attr in sources)
            for name, sources in sorted(self._sources.items())
        }

    # -- instrument access (get-or-create) ---------------------------------------

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, bounds)
        return h

    # -- one-shot conveniences ----------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        if self.enabled:
            self.histogram(name, bounds).observe(value)

    # -- aggregation --------------------------------------------------------------

    def total(self, metric: str) -> int:
        """Sum a counter across labels: ``total("x.sent")`` adds
        ``x.sent`` and every ``x.sent[...]``."""
        prefix = metric + "["
        return sum(
            value for name, value in self.counters.items()
            if name == metric or name.startswith(prefix)
        )

    def snapshot(self) -> dict:
        return {
            "counters": self.counters,
            "gauges": {
                n: {"value": g.value, "min": g.min, "max": g.max}
                for n, g in sorted(self.gauges.items()) if g.samples
            },
            "histograms": {
                n: h.snapshot() for n, h in sorted(self.histograms.items())
            },
        }

    def report(self) -> str:
        """Everything, as ascii tables (counters, gauges, histograms,
        span aggregates)."""
        parts = []
        counters = self.counters
        if counters:
            parts.append("counters:\n" + ascii_table(
                ["counter", "value"], [list(kv) for kv in counters.items()],
            ))
        live_gauges = [
            (n, g) for n, g in sorted(self.gauges.items()) if g.samples
        ]
        if live_gauges:
            parts.append("gauges:\n" + ascii_table(
                ["gauge", "value", "min", "max"],
                [[n, g.value, g.min, g.max] for n, g in live_gauges],
            ))
        if self.histograms:
            rows = []
            for n, h in sorted(self.histograms.items()):
                s = h.snapshot()
                rows.append([n, s["count"], s["mean"], s["p50"], s["p99"],
                             s["max"]])
            parts.append("histograms:\n" + ascii_table(
                ["histogram", "count", "mean", "p50", "p99", "max"], rows,
            ))
        if self.tracer.events:
            parts.append("spans:\n" + self.tracer.summary())
        return "\n\n".join(parts) if parts else "(no telemetry recorded)"


#: the shared disabled registry; the default everywhere
NULL = Telemetry(enabled=False)

_default: Telemetry = NULL


def get_telemetry() -> Telemetry:
    """The process-wide default registry (``NULL`` unless overridden)."""
    return _default


def set_default(telemetry: Optional[Telemetry]) -> Telemetry:
    """Install ``telemetry`` as the process default; ``None`` resets to
    :data:`NULL`.  Returns the previous default so callers can restore."""
    global _default
    previous = _default
    _default = telemetry if telemetry is not None else NULL
    return previous


# -- the derived end-to-end view ---------------------------------------------------


@dataclass
class ChannelReport:
    """Per-channel pipeline accounting (one rebroadcaster fan-out)."""

    name: str
    channel_id: int
    speakers: int
    data_sent: int = 0
    control_sent: int = 0
    send_failures: int = 0
    data_received: int = 0
    played: int = 0
    late_dropped: int = 0
    waiting_dropped: int = 0
    #: receive-side playout filtering (all included in data_received)
    dup_dropped: int = 0
    reorder_dropped: int = 0
    decode_failed: int = 0
    #: data from the wrong producer incarnation (also in data_received):
    #: stragglers from a dead producer after a failover, or early blocks
    #: from a new one whose control has not been seen yet
    epoch_dropped: int = 0
    #: *data* copies lost at speaker sockets (overflow while a node was
    #: hung or slow, plus whatever was queued when it died) — classified
    #: by packet type so control traffic never pads the data ledger
    socket_drops: int = 0
    #: data packets still unconsumed in speaker receive queues (crashed
    #: nodes keep their socket bound, so downtime arrivals sit here)
    in_flight: int = 0
    suspended_blocks: int = 0
    compression_ratio: float = 1.0

    @property
    def expected_deliveries(self) -> int:
        """Data packets times listeners (multicast fan-out)."""
        return self.data_sent * self.speakers

    @property
    def conservation_residual(self) -> int:
        """``sent - (received + dropped + in-flight)`` per §"every packet
        is somewhere": zero on a lossless LAN, and exactly the wire loss
        otherwise."""
        accounted = (
            self.data_received
            + self.socket_drops
            + self.in_flight
            + self.send_failures * self.speakers
        )
        return self.expected_deliveries - accounted


@dataclass
class PipelineReport:
    """End-to-end numbers for one run: what a perf PR must not regress.

    :attr:`stats` holds one row per component kind the system has: that
    kind's own stats dataclass, summed field by field over every
    component of the kind (:func:`sum_stats`).  A counter added to a
    component's dataclass shows up here and in :meth:`summary` with no
    other edit.  The named fields are the quantities that are not such a
    sum.
    """

    duration: float
    latency: dict = field(default_factory=dict)     # e2e producer->DAC write
    arrival: dict = field(default_factory=dict)     # producer->speaker rx
    jitter: dict = field(default_factory=dict)      # |inter-arrival - nominal|
    underruns: int = 0
    silence_seconds: float = 0.0
    channels: List[ChannelReport] = field(default_factory=list)
    #: component kind -> that kind's stats dataclass, summed
    stats: Dict[str, object] = field(default_factory=dict)
    injected_pending: int = 0     # LAN injector copies parked for reordering
    #: receivers-per-delivery-event histogram snapshot (net.fanout_batch);
    #: empty when telemetry is disabled or delivery is unbatched
    fanout_batch: dict = field(default_factory=dict)
    #: frames-per-real-encoder-invocation histogram (origin.encode_batch);
    #: empty when telemetry is disabled or no real encoder ran
    encode_batch: dict = field(default_factory=dict)
    takeover_latency: dict = field(default_factory=dict)  # silence -> decision
    rejoins: int = 0              # playback resumptions after an outage
    rejoin_gap: dict = field(default_factory=dict)  # histogram snapshot
    max_rejoin_gap: float = 0.0   # worst audible hole (from speaker stats)
    #: vectorized speaker cohorts (repro.core.cohort.SpeakerCohort)
    cohort_members: int = 0       # receivers represented by cohort rows
    cohort_spills: int = 0        # members materialised as full speakers
    cohort_events_saved: int = 0  # delivery events one exemplar stood in for
    wan_in_flight: int = 0        # WAN frames scheduled or parked at a hop
    #: Σ per-hop (lost + in-flight/parked + resequencer/parser drops +
    #: injector kills/corruptions + relay-down drops) × subtree speakers
    #: — leaf deliveries the WAN admits to having denied
    wan_lost_deliveries: int = 0
    #: Σ per-hop (retransmits + injected duplicates + FEC repairs +
    #: fallback filler) × subtree speakers — leaf deliveries the tree
    #: minted that the origin never sent
    wan_extra_deliveries: int = 0
    trace_events: int = 0

    def count(self, kind: str, name: str) -> int:
        """``stats[kind].<name>``, or 0 when the report has no such row."""
        row = self.stats.get(kind)
        return getattr(row, name) if row is not None else 0

    # read by name in perfbench/run.py:counts() and nowhere else in the
    # program; they go once perfbench reads the rows
    wan_sent = property(lambda self: self.count("wan_link", "sent"))
    wan_lost = property(lambda self: self.count("wan_link", "lost"))
    wan_retransmits = property(
        lambda self: self.count("wan_link", "retransmits"))
    wan_injected_losses = property(
        lambda self: self.count("wan_faults", "lost"))
    wan_nacks = property(lambda self: self.count("wan_hop", "nacks_sent"))
    failovers = property(lambda self: self.count("failover", "takeovers"))
    adp_advertises = property(
        lambda self: self.count("advertiser", "advertises"))
    adp_expiries = property(lambda self: self.count("controller", "expiries"))
    adp_departs = property(lambda self: self.count("controller", "departs"))

    @property
    def total_sent(self) -> int:
        return sum(c.data_sent for c in self.channels)

    @property
    def total_played(self) -> int:
        return sum(c.played for c in self.channels)

    @property
    def conservation_residual(self) -> int:
        return sum(c.conservation_residual for c in self.channels)

    @property
    def conservation_ok(self) -> bool:
        """True when every delivery is accounted for, faults included.

        A frame dropped at the sender (``segment.frames_dropped``) loses
        up to fan-out deliveries; a random wire loss
        (``segment.receiver_losses``) or an injected loss
        (``lan_faults.lost``) kills exactly one receiver copy; an injected
        corruption may turn a copy into garbage the speaker cannot
        attribute to the channel; a copy still parked for reordering is in
        flight.  All of those push the residual up, and the residual must
        fit inside what the network admits to having done.  Injected
        *duplicates* mint extra copies the producer never sent, pushing
        the residual negative — by at most the number of duplications.

        WAN hops extend both sides: every frame a hop denied (wire loss,
        injector kill or corruption, in flight, parked for resequencing
        or FEC reassembly, rejected by the parser, or dropped by a dead
        relay) loses up to its subtree's fan-out of leaf deliveries
        (``wan_lost_deliveries``), while NACK retransmits, injected
        duplicates, FEC-repaired frames, and relay fallback filler mint
        deliveries the origin never sent (``wan_extra_deliveries``).
        Parity frames themselves never enter either side: they are not
        channel data, so ``fec.parity_sent``/``fec.wasted`` are pure
        overhead, and only ``fec.repaired`` (inside
        ``wan_extra_deliveries``) touches the bound."""
        count = self.count
        bound = (
            count("segment", "frames_dropped") * max(
                (c.speakers for c in self.channels), default=1
            )
            + count("segment", "receiver_losses")
            + count("lan_faults", "lost")
            + count("lan_faults", "corrupted")
            + self.injected_pending
            + self.wan_lost_deliveries
        )
        floor = -(count("lan_faults", "duplicated")
                  + self.wan_extra_deliveries)
        return floor <= self.conservation_residual <= bound

    def summary(self) -> str:
        """Ascii rendering, built on the :mod:`repro.metrics.report`
        helpers (the same tables the benchmarks print)."""
        lat_rows = []
        for label, snap in (("e2e latency (s)", self.latency),
                            ("arrival latency (s)", self.arrival),
                            ("jitter (s)", self.jitter),
                            ("fanout batch (rx)", self.fanout_batch),
                            ("origin batch (frames)", self.encode_batch),
                            ("takeover latency (s)", self.takeover_latency),
                            ("rejoin gap (s)", self.rejoin_gap)):
            if snap:
                lat_rows.append([
                    label, snap["count"], snap["mean"], snap["p50"],
                    snap["p90"], snap["p99"], snap["max"],
                ])
        parts = []
        if lat_rows:
            parts.append(ascii_table(
                ["series", "count", "mean", "p50", "p90", "p99", "max"],
                lat_rows,
            ))
        parts.append(ascii_table(
            ["channel", "sent", "rx", "played", "late", "dup", "reord",
             "undec", "epoch", "sockdrop", "inflight", "residual",
             "ratio"],
            [
                [c.name, c.data_sent, c.data_received, c.played,
                 c.late_dropped, c.dup_dropped, c.reorder_dropped,
                 c.decode_failed, c.epoch_dropped, c.socket_drops,
                 c.in_flight, c.conservation_residual,
                 c.compression_ratio]
                for c in self.channels
            ],
        ))
        rows = [
            ["duration (s)", self.duration],
            ["underruns", self.underruns],
            ["silence (s)", self.silence_seconds],
        ]
        for kind, row in self.stats.items():
            counts = [[f"{kind}.{name}", getattr(row, name)]
                      for name in int_fields(row)]
            if any(value for _, value in counts):
                rows += counts
        rows += [[label, value] for label, value in (
            ["injected pending", self.injected_pending],
            ["rejoins", self.rejoins],
            ["max rejoin gap (s)", round(self.max_rejoin_gap, 4)],
            ["cohort members", self.cohort_members],
            ["cohort spills", self.cohort_spills],
            ["cohort events saved", self.cohort_events_saved],
            ["wan in flight", self.wan_in_flight],
            ["wan lost deliveries", self.wan_lost_deliveries],
            ["wan extra deliveries", self.wan_extra_deliveries],
        ) if value]
        rows += [
            ["trace events", self.trace_events],
            ["conservation ok", str(self.conservation_ok)],
        ]
        parts.append(ascii_table(["quantity", "value"], rows))
        return "\n\n".join(parts)
