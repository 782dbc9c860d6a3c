"""A shared Ethernet segment.

Frames serialise onto the wire at the segment's bit rate (a transmission
occupies the medium for its wire time), then every attached NIC whose
filters match sees the frame after the propagation latency plus optional
per-receiver jitter.  A bounded transmit backlog models what happens when
senders outrun a 10 Mbps legacy segment: the queue fills and frames drop —
exactly the failure §2.2 says made raw CD-quality rebroadcast "unacceptable"
on slow links.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.net.addr import wire_bytes
from repro.sim.core import Simulator

#: bucket bounds for the fan-out batch-size histogram (receivers per
#: scheduled delivery event)
FANOUT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def deliver_batch(nics, dgram) -> None:
    """One scheduled event fanning a frame out to every receiver that
    shares the same delivery time (the multicast fast path)."""
    for nic in nics:
        nic.deliver(dgram)


def transmit_cohort(link, cohort, dgram, base_delay: float) -> None:
    """The per-member fate loop a cohort's seat on ``link`` (an
    :class:`EthernetSegment` or a switch port) stands in for.

    Draw order per member is byte-identical to the links' per-receiver
    loops (wire loss, then wire jitter, then the injector), so a seeded
    cohort run and a per-object run consume the wire RNG in the same
    sequence.  Members whose copy comes out clean share one delivery
    event via ``finish_frame``; any other outcome diverges the member and
    spills it at the exemplar's next boundary.
    """
    rng, loss_rate, jitter = link._rng, link.loss_rate, link.jitter
    faults, sim = link.faults, link.sim
    represented = 0
    for tok in cohort.tokens:
        if loss_rate and rng.random() < loss_rate:
            link.stats.receiver_losses += 1
            if tok.state == 0:
                cohort.mark_divergent(tok, dgram, reason="wire-loss")
            continue
        delay = base_delay
        if jitter:
            delay += rng.uniform(0.0, jitter)
        if faults is not None:
            if tok.state == 0 and delay == base_delay:
                fate = faults._copy_fate(tok, dgram, delay)
                if fate == "clean":
                    represented += 1
                else:
                    cohort.mark_divergent(tok, dgram, reason=fate)
            else:
                if tok.state == 0:
                    cohort.mark_divergent(tok, dgram, reason="jitter")
                faults.deliver(tok, dgram, delay)
        elif tok.state == 0 and delay == base_delay:
            represented += 1
        else:
            if tok.state == 0:
                cohort.mark_divergent(tok, dgram, reason="jitter")
            sim.schedule_transient(delay, tok.deliver, dgram)
    cohort.finish_frame(dgram, base_delay, represented)


@dataclass
class Datagram:
    """A UDP datagram in flight (we model at the datagram level and account
    Ethernet/IP costs arithmetically via :func:`wire_bytes`)."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    payload: bytes
    vlan: int = 1

    @property
    def wire_size(self) -> int:
        return wire_bytes(len(self.payload))


@dataclass
class SegmentStats:
    frames_sent: int = 0
    frames_dropped: int = 0
    #: receiver copies lost to random wire loss — counted per receiver,
    #: not per frame, so conservation checks can account for every copy
    receiver_losses: int = 0
    bytes_sent: int = 0
    busy_seconds: float = 0.0


class EthernetSegment:
    """The LAN: a broadcast domain with finite bandwidth.

    Parameters
    ----------
    bandwidth_bps:
        10e6 for legacy Ethernet, 100e6 for the paper's fast Ethernet.
    latency:
        propagation delay to every receiver (uniform — the protocol's
        "everybody receives a multicast packet at the same time"
        assumption is the special case jitter == 0).
    jitter:
        per-receiver uniform extra delay in [0, jitter].
    loss_rate:
        independent per-receiver drop probability.
    max_backlog:
        transmit queue bound in frames (queued or on the wire, whatever
        their size); a frame arriving behind more than this many drops.

    On a jitter-free wire with no fault injector attached, every matching
    NIC hears a frame at the same instant, so :meth:`transmit` schedules
    ONE event per frame that fans out to all of them; otherwise each
    receiver copy is its own event.  Virtual timing, delivery order and
    the seeded loss draws are the same either way.

    The NICs that accept a ``(dst_ip, vlan)`` are found once with
    :meth:`Nic.accepts <repro.net.nic.Nic.accepts>` and kept, in attach
    order, until :meth:`invalidate_receivers` drops them.  ``attach``,
    ``detach``, and a NIC's ``ip``/``vlan``/``promiscuous`` writes and
    group joins and leaves all call it.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 100e6,
        latency: float = 50e-6,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        max_backlog: int = 200,
        seed: int = 0,
        name: str = "lan0",
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate out of range: {loss_rate}")
        self.sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency = latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.max_backlog = max_backlog
        self.name = name
        self.stats = SegmentStats()
        self._rng = np.random.default_rng(seed)
        self._nics: List["Nic"] = []
        #: (dst_ip, vlan) -> accepting NICs in attach order
        self._receivers: Dict[Tuple[str, int], Tuple["Nic", ...]] = {}
        #: wire-exit times of the frames queued or on the wire, in order
        self._queue: Deque[float] = deque()
        self._taps: List[Callable[[Datagram], None]] = []
        #: optional FaultInjector interposed on receiver deliveries
        self.faults = None

    def set_fault_injector(self, faults) -> None:
        """Route every receiver delivery through ``faults`` (see
        :class:`~repro.net.faults.FaultInjector`); ``None`` detaches."""
        self.faults = faults

    def attach(self, nic: "Nic") -> None:
        self._nics.append(nic)
        self._receivers.clear()

    def detach(self, nic: "Nic") -> None:
        if nic in self._nics:
            self._nics.remove(nic)
            self._receivers.clear()

    def invalidate_receivers(self) -> None:
        """Forget the cached receiver sets; an input of some attached
        NIC's :meth:`accepts` changed."""
        self._receivers.clear()

    def receivers(self, dgram: Datagram) -> Tuple["Nic", ...]:
        """Every attached NIC that accepts ``dgram``, in attach order
        (the sender included, if it accepts its own frame)."""
        key = (dgram.dst_ip, dgram.vlan)
        found = self._receivers.get(key)
        if found is None:
            found = tuple(n for n in self._nics if n.accepts(dgram))
            self._receivers[key] = found
        return found

    def add_tap(self, fn: Callable[[Datagram], None]) -> None:
        """Register a monitor called for every frame that makes it onto
        the wire (bandwidth meters, packet captures)."""
        self._taps.append(fn)

    # -- transmission -------------------------------------------------------------

    def transmit(self, dgram: Datagram, sender: Optional["Nic"] = None) -> bool:
        """Put a frame on the wire.  Returns False if the backlog is full
        and the frame was dropped at the sender."""
        now = self.sim.now
        wire_size = dgram.wire_size
        tx_time = wire_size * 8 / self.bandwidth_bps
        queue = self._queue
        while queue and queue[0] <= now:
            queue.popleft()
        if len(queue) > self.max_backlog:
            self.stats.frames_dropped += 1
            return False
        done = (queue[-1] if queue else now) + tx_time
        queue.append(done)
        self.stats.frames_sent += 1
        self.stats.bytes_sent += wire_size
        self.stats.busy_seconds += tx_time
        for tap in self._taps:
            tap(dgram)
        base_delay = done - now + self.latency
        # jitter-free and uninjected, every receiver shares one delivery
        # instant, so the whole fan-out rides one scheduled event; the
        # loss draws happen in NIC order either way
        batching = self.faults is None and not self.jitter
        targets = []
        for nic in self.receivers(dgram):
            if nic is sender:
                continue
            cohort = getattr(nic, "cohort", None)
            if cohort is not None:
                transmit_cohort(self, cohort, dgram, base_delay)
                continue
            if self.loss_rate and self._rng.random() < self.loss_rate:
                self.stats.receiver_losses += 1
                continue
            if batching:
                targets.append(nic)
                continue
            delay = base_delay
            if self.jitter:
                delay += self._rng.uniform(0.0, self.jitter)
            if self.faults is not None:
                self.faults.deliver(nic, dgram, delay)
            else:
                self.sim.schedule_transient(delay, nic.deliver, dgram)
        if targets:
            if len(targets) == 1:
                self.sim.schedule_transient(
                    base_delay, targets[0].deliver, dgram
                )
            else:
                self.sim.schedule_transient(
                    base_delay, deliver_batch, targets, dgram
                )
            tel = self.sim.telemetry
            if tel is not None:
                tel.observe("net.fanout_batch", len(targets),
                            bounds=FANOUT_BOUNDS)
        return True
