"""A switched Ethernet with IGMP snooping.

The paper's protocol assumes one shared segment (§2.3); by 2005 most
campus LANs were already switched.  A switch changes the economics the
benchmarks measure:

* unicast flows on different ports no longer contend for one wire;
* multicast reaches **only the ports whose hosts joined the group**
  (IGMP snooping) instead of every drop cable — without snooping a
  switch floods multicast like broadcast, which is also modelled.

The class exposes the same ``attach``/``detach``/``transmit``/``add_tap``
surface as :class:`~repro.net.segment.EthernetSegment`, so NICs, stacks,
and monitors work unchanged on either.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from repro.metrics.telemetry import get_telemetry
from repro.net.addr import is_broadcast, is_multicast
from repro.net.segment import (
    Datagram,
    FANOUT_BOUNDS,
    deliver_batch,
    transmit_cohort,
)
from repro.sim.core import Simulator


@dataclass
class SwitchStats:
    frames_switched: int = 0
    frames_flooded: int = 0
    frames_dropped: int = 0
    #: forwarded copies lost to random wire loss (per receiver port)
    receiver_losses: int = 0
    bytes_in: int = 0
    per_port_bytes_out: Dict[str, int] = field(default_factory=dict)


class SwitchedSegment:
    """A store-and-forward switch; every attached NIC gets its own port.

    Each port has independent ingress and egress serialisation at
    ``port_bps``.  ``igmp_snooping`` prunes multicast to joined ports;
    when off, multicast floods like broadcast.  :attr:`MAX_EGRESS_BACKLOG`
    bounds each egress queue in frames, whatever their size.
    """

    MAX_EGRESS_BACKLOG = 200

    def __init__(
        self,
        sim: Simulator,
        port_bps: float = 100e6,
        latency: float = 20e-6,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        igmp_snooping: bool = True,
        seed: int = 0,
        name: str = "switch0",
        telemetry=None,
    ):
        if port_bps <= 0:
            raise ValueError("port bandwidth must be positive")
        self.sim = sim
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.port_bps = float(port_bps)
        self.latency = latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.igmp_snooping = igmp_snooping
        self.name = name
        self.stats = SwitchStats()
        self.telemetry.register("switch", name, self.stats)
        self._rng = np.random.default_rng(seed)
        self._nics: List = []
        self._ingress_free: Dict[int, float] = {}
        #: egress port -> wire-exit times of the frames queued on it
        self._egress: Dict[int, Deque[float]] = {}
        self._taps: List[Callable[[Datagram], None]] = []
        #: optional FaultInjector interposed on forwarded copies
        self.faults = None

    def set_fault_injector(self, faults) -> None:
        """Route every forwarded copy through ``faults`` (see
        :class:`~repro.net.faults.FaultInjector`); ``None`` detaches."""
        self.faults = faults

    # -- EthernetSegment-compatible surface -----------------------------------

    def attach(self, nic) -> None:
        self._nics.append(nic)

    def detach(self, nic) -> None:
        if nic in self._nics:
            self._nics.remove(nic)

    def invalidate_receivers(self) -> None:
        pass  # forwarding is decided per frame, so nothing is cached

    def add_tap(self, fn: Callable[[Datagram], None]) -> None:
        self._taps.append(fn)

    def transmit(self, dgram: Datagram, sender=None) -> bool:
        now = self.sim.now
        tx_time = dgram.wire_size * 8 / self.port_bps

        # ingress: the sender's own drop cable serialises
        in_port = id(sender) if sender is not None else 0
        in_start = max(now, self._ingress_free.get(in_port, 0.0))
        in_done = in_start + tx_time
        self._ingress_free[in_port] = in_done
        self.stats.bytes_in += dgram.wire_size

        receivers = self._select_ports(dgram, sender)
        for tap in self._taps:
            tap(dgram)

        tel = self.telemetry
        tracer = tel.tracer
        # one delivery event per (frame, shared delay) group instead of one
        # per receiver port, unless jitter or a fault injector gives each
        # copy its own fate
        batching = self.faults is None and not self.jitter
        #: delivery-time -> receivers sharing it (idle equal-speed ports
        #: all land on one instant, so multicast fan-out usually builds a
        #: single group); insertion order preserves per-receiver order
        groups: Dict[float, List] = {}
        #: a frame is refused (False) only when no selected port queued
        #: it; a copy then lost on the wire is a receiver loss, as on
        #: an EthernetSegment
        queued = False
        for nic in receivers:
            queue = self._egress.get(id(nic))
            if queue is None:
                queue = self._egress[id(nic)] = deque()
            while queue and queue[0] <= now:
                queue.popleft()
            backlog = len(queue)
            if backlog > self.MAX_EGRESS_BACKLOG:
                self.stats.frames_dropped += 1
                tracer.instant("switch.drop", track=f"{self.name}:{nic.name}",
                               backlog=backlog)
                continue
            out_start = max(in_done, queue[-1]) if queue else in_done
            out_done = out_start + tx_time
            queue.append(out_done)
            queued = True
            if tel.enabled:
                # one complete event per forwarded copy: queueing +
                # serialisation on the egress port (the forward is
                # scheduled, not executed inline, so timing is explicit)
                tracer.complete("switch.forward", out_start, tx_time,
                                track=f"{self.name}:{nic.name}")
                tel.set_gauge(f"switch.egress_backlog[{self.name}]", backlog)
            self.stats.per_port_bytes_out[nic.name] = (
                self.stats.per_port_bytes_out.get(nic.name, 0)
                + dgram.wire_size
            )
            cohort = getattr(nic, "cohort", None)
            if cohort is not None:
                # the cohort's port: one egress serialisation (it is one
                # drop cable), then the per-member fate loop in the same
                # draw order the per-object loop below uses
                delay = out_done - now + self.latency
                transmit_cohort(self, cohort, dgram, delay)
                continue
            if self.loss_rate and self._rng.random() < self.loss_rate:
                self.stats.receiver_losses += 1
                continue
            delay = out_done - now + self.latency
            if batching:
                groups.setdefault(delay, []).append(nic)
                continue
            if self.jitter:
                delay += self._rng.uniform(0.0, self.jitter)
            if self.faults is not None:
                self.faults.deliver(nic, dgram, delay)
            else:
                self.sim.schedule_transient(delay, nic.deliver, dgram)
        for delay, nics in groups.items():
            if len(nics) == 1:
                self.sim.schedule_transient(delay, nics[0].deliver, dgram)
            else:
                self.sim.schedule_transient(delay, deliver_batch, nics, dgram)
            if tel.enabled:
                tel.observe("net.fanout_batch", len(nics),
                            bounds=FANOUT_BOUNDS)
        return queued or not receivers

    # -- forwarding decision ------------------------------------------------------

    def _select_ports(self, dgram: Datagram, sender) -> List:
        candidates = [n for n in self._nics if n is not sender]
        if is_broadcast(dgram.dst_ip):
            self.stats.frames_flooded += 1
            return [n for n in candidates if n.vlan == dgram.vlan]
        if is_multicast(dgram.dst_ip):
            if self.igmp_snooping:
                self.stats.frames_switched += 1
                return [
                    n for n in candidates
                    if n.vlan == dgram.vlan and (
                        dgram.dst_ip in n.groups or n.promiscuous
                    )
                ]
            self.stats.frames_flooded += 1
            return [n for n in candidates if n.vlan == dgram.vlan]
        # unicast: forward only to the owning port (the "MAC table")
        matches = [
            n for n in candidates
            if n.vlan == dgram.vlan and (n.ip == dgram.dst_ip or n.promiscuous)
        ]
        if matches:
            self.stats.frames_switched += 1
            return matches
        # unknown destination: flood, like a real switch
        self.stats.frames_flooded += 1
        return [n for n in candidates if n.vlan == dgram.vlan]

    @property
    def flooded_fraction(self) -> float:
        total = self.stats.frames_switched + self.stats.frames_flooded
        if total == 0:
            return 0.0
        return self.stats.frames_flooded / total
