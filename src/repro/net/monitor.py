"""Traffic accounting on a segment tap."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

from repro.metrics.telemetry import get_telemetry
from repro.net.segment import Datagram, EthernetSegment
from repro.sim.core import Simulator

#: how often (in frames) the monitor samples a tracer counter track —
#: enough resolution for chrome://tracing, bounded event volume
_TRACE_SAMPLE_FRAMES = 64


class BandwidthMonitor:
    """Counts wire bytes per destination (ip, port) flow and in total.

    Attach one to a segment to answer the paper's §2.2 question: how many
    Mbps does a CD-quality rebroadcast cost, raw versus compressed?  With
    telemetry enabled it also publishes ``net.frames``/``net.wire_bytes``
    counters and drops a sampled ``net.throughput`` counter track into the
    trace so bandwidth is visible on the same timeline as the spans.
    """

    def __init__(self, sim: Simulator, segment: EthernetSegment,
                 telemetry=None):
        self.sim = sim
        self.segment = segment
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.telemetry.register("net", None, self, {
            "frames": "frames", "wire_bytes": "total_wire_bytes"})
        self.started_at = sim.now
        self.total_wire_bytes = 0
        self.total_payload_bytes = 0
        self.frames = 0
        self.per_flow_bytes: Dict[Tuple[str, int], int] = defaultdict(int)
        segment.add_tap(self._on_frame)

    def _on_frame(self, dgram: Datagram) -> None:
        self.frames += 1
        self.total_wire_bytes += dgram.wire_size
        self.total_payload_bytes += len(dgram.payload)
        self.per_flow_bytes[(dgram.dst_ip, dgram.dst_port)] += dgram.wire_size
        if (
            self.telemetry.enabled
            and self.frames % _TRACE_SAMPLE_FRAMES == 0
        ):
            self.telemetry.tracer.counter(
                "net.throughput", track="net",
                wire_mbps=round(self.mbps, 3),
            )

    def reset(self) -> None:
        self.started_at = self.sim.now
        self.total_wire_bytes = 0
        self.total_payload_bytes = 0
        self.frames = 0
        self.per_flow_bytes.clear()

    @property
    def elapsed(self) -> float:
        return max(self.sim.now - self.started_at, 1e-12)

    @property
    def mbps(self) -> float:
        """Average wire rate since start/reset, in Mbit/s."""
        return self.total_wire_bytes * 8 / self.elapsed / 1e6

    @property
    def payload_mbps(self) -> float:
        """Payload-only rate (what the paper's 1.3 Mbps figure counts)."""
        return self.total_payload_bytes * 8 / self.elapsed / 1e6

    def flow_mbps(self, dst_ip: str, dst_port: int) -> float:
        return self.per_flow_bytes[(dst_ip, dst_port)] * 8 / self.elapsed / 1e6
