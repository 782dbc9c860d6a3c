"""WAN links and the multi-tier relay distribution tree.

The rebroadcaster's upstream (Figure 1) was a single point-to-point WAN
pipe: a Real-Audio-style server on the public Internet feeding the proxy
machine.  Unlike the LAN, the WAN has real latency, jitter, and loss —
the "network problems associated with transmission over WAN links" (§6)
that the ES system deliberately keeps out of the LAN protocol by
terminating them at the rebroadcaster.

One LAN cannot serve millions of listeners, so this module grows that
pipe into a **hierarchical relay tree**::

    origin rebroadcaster ──wan──> regional relay ──wan──> leaf relay ──lan──> speakers
                           └────> regional relay ──wan──> ...

* :class:`WanLink` — one unidirectional hop with its own bandwidth,
  latency, jitter, and loss profile.  Loss and jitter draw from
  **independent** seeded RNG streams, so sweeping ``loss_rate`` never
  shifts the jitter trajectory of the surviving frames.
* :class:`WanHop` — a link plus a selectable **recovery ladder**
  (``recovery="none"|"nack"|"fec"|"fec+nack"``) for lossy hops where
  the LAN's just-conceal policy breaks down: application-layer FEC
  (:mod:`repro.net.fec`) repairs losses with zero reverse traffic,
  unrepaired holes fall through to the bounded-ring NACK layer (when
  enabled), and whatever survives both is abandoned after a bounded
  timeout and concealed downstream — degradation, never a stall.
  A :class:`~repro.net.faults.FaultInjector` can attach to any
  :class:`WanLink` (``injector.attach(link)``) for the full hostile-WAN
  chain: GE bursty loss, duplication, corruption, bounded reorder.
* :class:`RelayNode` — a tandem-free forwarder: it classifies packets
  from the common header alone (:func:`~repro.core.protocol.peek_header`,
  zero-copy, no payload decode) and re-multicasts the compressed bytes
  unchanged.  A relay that loses its uplink cadence fails over to a
  local **fallback source** (a silence/filler stream under a fresh
  epoch, Liquidsoap-style) and stands down when the uplink reappears,
  mapping upstream epochs forward with serial-16 arithmetic so every
  downstream listener re-anchors instead of going silent.

Wire/tree construction lives in
:meth:`repro.core.system.EthernetSpeakerSystem.add_relay` /
``add_leaf_lan``; per-hop counters are folded into the conservation
ledger by ``pipeline_report()``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.codec.base import CodecID
# NOTE: these reach into sibling packages whose modules never import
# repro.net, and repro.net.__init__ loads wan *lazily* (PEP 562) so
# this module can't run inside repro.kernel.machine's bootstrap — both
# facts keep the circular package imports safe.  Keep it that way.
from repro.core.failover import CadenceMonitor
from repro.core.protocol import (
    EPOCH_MOD,
    SEQ_MOD,
    TYPE_CONTROL,
    TYPE_DATA,
    TYPE_FEC,
    ControlPacket,
    DataPacket,
    ProtocolError,
    epoch_newer,
    parse_packet,
    peek_header,
    restamp_epoch,
    seq_delta,
)
from repro.metrics.telemetry import get_telemetry
from repro.net.fec import FecEncoder, FecReassembler, FecStats
from repro.net.segment import Datagram
from repro.sim.core import Simulator

#: recovery-ladder policies a hop can run (see :class:`WanHop`)
RECOVERY_POLICIES = ("none", "nack", "fec", "fec+nack")


class _WanRx:
    """Adapter presenting one WAN delivery callback to a FaultInjector.

    The injector keys its Gilbert–Elliott chains and reorder parking on
    the receiver object it calls ``deliver`` on; wrapping each callback
    once (cached per link) keeps those draws deterministic per receiver
    path exactly like a LAN NIC.
    """

    __slots__ = ("_link", "_cb")

    def __init__(self, link: "WanLink", cb: Callable[[bytes], None]):
        self._link = link
        self._cb = cb

    def deliver(self, dgram: Datagram) -> None:
        self._link._deliver(dgram.payload, self._cb)


class WanLink:
    """Unidirectional WAN pipe delivering payloads to a callback.

    Serialisation at ``bandwidth_bps``, propagation ``latency``, uniform
    ``jitter``, independent ``loss_rate``.  Reordering can emerge naturally
    from jitter (delivery time = queue-exit + jittered propagation).

    Loss and jitter draw from independent streams spawned off the same
    seed: frame *i*'s jitter is a function of ``(seed, i)`` alone, so a
    sweep across loss rates delivers the surviving frames at identical
    times and stays comparable frame-for-frame.

    Counters (also exported as ``wan.sent/delivered/lost/retransmits``
    telemetry, labelled by link name) let ``pipeline_report()`` close the
    conservation ledger across WAN hops.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 1.5e6,  # a T1, period-appropriate
        latency: float = 0.060,
        jitter: float = 0.030,
        loss_rate: float = 0.0,
        seed: int = 0,
        name: str = "wan0",
        telemetry=None,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency = latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.name = name
        loss_ss, jitter_ss = np.random.SeedSequence(seed).spawn(2)
        self._loss_rng = np.random.default_rng(loss_ss)
        self._jitter_rng = np.random.default_rng(jitter_ss)
        self._free_at = 0.0
        self.faults = None
        self._rx_cache: Dict[object, _WanRx] = {}
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.retransmits = 0
        self.bytes_sent = 0
        tel = telemetry if telemetry is not None else get_telemetry()
        self.telemetry = tel
        self._c_sent = tel.counter(f"wan.sent[{name}]")
        self._c_delivered = tel.counter(f"wan.delivered[{name}]")
        self._c_lost = tel.counter(f"wan.lost[{name}]")
        self._c_retx = tel.counter(f"wan.retransmits[{name}]")

    def set_fault_injector(self, faults) -> None:
        """Interpose a :class:`~repro.net.faults.FaultInjector` on this
        link's deliveries (GE bursty loss, duplication, corruption,
        bounded reorder, jitter — the full LAN fault chain, on a WAN pipe).

        The injector must be dedicated to this link: its counters feed
        this link's ``in_flight`` arithmetic and the per-hop conservation
        budget, both of which would be wrong if another link shared them.
        """
        if faults is not None and getattr(faults, "links", None):
            raise ValueError(
                f"FaultInjector {faults.name!r} already attached elsewhere; "
                "WAN links need a dedicated injector"
            )
        self.faults = faults
        self._rx_cache.clear()

    @property
    def in_flight(self) -> int:
        """Frames serialised but neither delivered nor lost yet.

        With a fault injector attached, copies it killed are not coming
        and copies it minted will arrive beyond ``sent`` — both adjust
        the balance so quiescence still reads zero.
        """
        base = self.sent - self.delivered - self.lost
        if self.faults is not None:
            base += self.faults.stats.duplicated - self.faults.stats.lost
        return base

    def send(
        self,
        payload: bytes,
        deliver: Callable[[bytes], None],
        retransmit: bool = False,
    ) -> bool:
        """Queue ``payload``; ``deliver(payload)`` fires at arrival time.

        Returns False when the loss draw killed the frame (the caller —
        e.g. a :class:`WanHop` — may want to account the loss by packet
        type), True when delivery was scheduled.
        """
        now = self.sim.now
        tx_time = len(payload) * 8 / self.bandwidth_bps
        start = max(now, self._free_at)
        self._free_at = start + tx_time
        self.sent += 1
        self.bytes_sent += len(payload)
        self._c_sent.inc()
        if retransmit:
            self.retransmits += 1
            self._c_retx.inc()
        # the jitter draw happens for *every* frame, before the loss draw
        # and from its own stream — a lost frame consumes its jitter value
        # so the survivors' delivery times are loss-rate-invariant
        jit = self._jitter_rng.uniform(0.0, self.jitter) if self.jitter else 0.0
        if self.loss_rate and self._loss_rng.random() < self.loss_rate:
            self.lost += 1
            self._c_lost.inc()
            return False
        delay = (start + tx_time - now) + self.latency + jit
        if self.faults is not None:
            rx = self._rx_cache.get(deliver)
            if rx is None:
                rx = self._rx_cache[deliver] = _WanRx(self, deliver)
            self.faults.deliver(
                rx,
                Datagram(
                    src_ip=self.name, src_port=0,
                    dst_ip=self.name, dst_port=0, payload=payload,
                ),
                delay,
            )
        else:
            self.sim.schedule(delay, self._deliver, payload, deliver)
        return True

    def _deliver(self, payload: bytes, deliver: Callable[[bytes], None]):
        self.delivered += 1
        self._c_delivered.inc()
        deliver(payload)

    def reset(self) -> None:
        """Cold-start the sender-side serialisation queue.

        The queue is state in the sending node's RAM: when that node
        crashes and restarts, the backlog dies with it.  Without this, a
        restarted relay would inherit a stale future ``_free_at`` and
        delay every post-restart frame behind ghosts of the old backlog.
        """
        self._free_at = 0.0


@dataclass
class WanHopStats:
    data_sent: int = 0        # data frames offered to the link
    data_lost: int = 0        # data frames the loss draw killed
    nacks_sent: int = 0       # NACK messages over the reverse path
    retransmitted: int = 0    # frames re-sent from the retransmit ring
    recovered: int = 0        # gap positions filled before the deadline
    abandoned: int = 0        # gap positions given up on (skipped)
    stale_dropped: int = 0    # arrivals behind the resequencer, discarded
    corrupt_dropped: int = 0  # arrivals rejected by the parser (mangled)


class WanHop:
    """One parent→child hop of the relay tree: a :class:`WanLink` plus a
    selectable loss-recovery ladder.

    ``recovery`` picks the policy:

    * ``"none"`` — pass-through: frames arrive downstream in whatever
      order jitter produced and the LAN's conceal/dedupe policy deals
      with it.
    * ``"nack"`` — the **sender** keeps a bounded ring of the last
      ``retransmit_buffer`` data frames; the **receiver** resequences,
      NACKs missing seqs once over the reverse path after ``nack_delay``
      of natural-reordering grace, and abandons each gap position after
      ``recover_timeout``.
    * ``"fec"`` — the sender runs a :class:`~repro.net.fec.FecEncoder`
      (``fec_k`` data / ``fec_r`` parity / ``fec_interleave`` lanes) and
      the receiver a :class:`~repro.net.fec.FecReassembler`; repaired
      frames are injected into the resequencer in order.  **Zero reverse
      traffic**: no NACKs are ever sent, so the policy works where the
      reverse path is slow, lossy, or absent (§6's internet-radio case).
    * ``"fec+nack"`` — the full ladder: FEC repairs first; holes the
      parity horizon could not cover fall through to the NACK ring
      (``nack_delay`` defaults to the FEC flush horizon so the reverse
      path is only exercised for FEC's failures); whatever remains is
      abandoned after ``recover_timeout`` and concealed downstream.

    Control and announce packets bypass the resequencer — they are
    idempotent anchors, and holding them would only delay re-anchoring.
    Parity frames are hop-local: consumed here, never forwarded, so FEC
    overhead on one hop is invisible to the rest of the tree.
    """

    def __init__(
        self,
        link: WanLink,
        deliver: Callable[[bytes], None],
        recovery: str = "none",
        retransmit_buffer: int = 64,
        nack_delay: Optional[float] = None,
        recover_timeout: Optional[float] = None,
        fec_k: int = 4,
        fec_r: int = 1,
        fec_interleave: int = 1,
        fec_flush_timeout: float = 0.25,
        fec_window: int = 256,
        name: str = "",
    ):
        if recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery={recovery!r} not one of {RECOVERY_POLICIES}"
            )
        self.link = link
        self.sim = link.sim
        self.recovery = recovery
        #: NACK messages enabled
        self.nack = recovery in ("nack", "fec+nack")
        self._fec_on = recovery in ("fec", "fec+nack")
        self._resequencing = recovery != "none"
        self.retransmit_buffer = retransmit_buffer
        #: grace before NACKing: jitter reordering for a NACK-only hop;
        #: for the full ladder, additionally the FEC horizon — parity
        #: gets its chance before the reverse path is used
        if nack_delay is not None:
            self.nack_delay = nack_delay
        elif recovery == "fec+nack":
            self.nack_delay = fec_flush_timeout + max(link.jitter, 0.005)
        else:
            self.nack_delay = max(link.jitter, 0.005)
        #: per gap position: how long from detection until we skip it
        if recover_timeout is not None:
            self.recover_timeout = recover_timeout
        elif recovery == "fec":
            # no reverse path: the gap either repairs within the parity
            # horizon (group fill bounded by the encoder flush timer,
            # plus one forward trip) or it never will
            self.recover_timeout = (
                fec_flush_timeout + link.latency + link.jitter + 0.05
            )
        else:
            # NACK grace + reverse path + retransmitted forward path
            self.recover_timeout = (
                self.nack_delay + 2 * link.latency + link.jitter + 0.01
            )
        self.name = name or f"hop:{link.name}"
        self.stats = WanHopStats()
        self.fec = FecStats()
        self._deliver_cb = deliver
        #: the relay this hop feeds (set by the system builder; used for
        #: subtree-scaled conservation budgets)
        self.child = None
        # -- sender side (lives in the parent node's RAM) --
        self._ring: "OrderedDict[int, bytes]" = OrderedDict()
        self._tx_epoch: Optional[int] = None
        self._encoder: Optional[FecEncoder] = None
        if self._fec_on:
            self._encoder = FecEncoder(
                self.sim, self._send_parity,
                k=fec_k, r=fec_r, interleave=fec_interleave,
                flush_timeout=fec_flush_timeout, stats=self.fec,
            )
        # -- receiver side (lives in the child node's RAM) --
        self._rx_epoch: Optional[int] = None
        self._next: Optional[int] = None   # next data seq owed downstream
        self._hold: Dict[int, bytes] = {}  # parked post-gap frames
        self._missing: Dict[int, float] = {}  # gap seq -> abandon deadline
        self._gen = 0  # invalidates scheduled NACK/deadline callbacks
        self._reassembler: Optional[FecReassembler] = None
        if self._fec_on:
            self._reassembler = FecReassembler(
                stats=self.fec, window=fec_window,
            )

    @property
    def pending(self) -> int:
        """Data frames parked in the resequencer right now."""
        return len(self._hold)

    # -- sender side -----------------------------------------------------------

    def send(self, wire: bytes) -> bool:
        hdr = peek_header(wire)
        is_data = hdr is not None and hdr[0] == TYPE_DATA
        if is_data:
            self.stats.data_sent += 1
            if self.nack:
                _, _, seq, epoch = hdr
                if epoch != self._tx_epoch:
                    # a new incarnation restarts its own seq space; the
                    # old ring could only feed it wrong-epoch frames
                    self._ring.clear()
                    self._tx_epoch = epoch
                self._ring[seq] = bytes(wire)
                while len(self._ring) > self.retransmit_buffer:
                    self._ring.popitem(last=False)
        ok = self.link.send(wire, self._arrive)
        if is_data and not ok:
            self.stats.data_lost += 1
        if is_data and self._encoder is not None:
            # the encoder sees every data frame *offered* (even ones the
            # loss draw killed — that is the point), after the member
            # itself is on the wire so parity always trails its group
            _, channel_id, seq, epoch = hdr
            self._encoder.on_data(channel_id, seq, epoch, wire)
        return ok

    def _send_parity(self, wire: bytes) -> None:
        # parity rides the same link and loss process as data but is
        # hop-local: the far end consumes it, repairs, and forwards only
        # repaired *data* frames
        self.link.send(wire, self._arrive)

    def _do_retransmit(self, seqs, gen: int) -> None:
        if gen != self._gen:
            return
        for seq in seqs:
            wire = self._ring.get(seq)
            if wire is not None:
                self.stats.retransmitted += 1
                self.link.send(wire, self._arrive_retransmit, retransmit=True)

    def reset_sender(self) -> None:
        """The sending node cold-started: its retransmit ring, open FEC
        groups, and the link's serialisation backlog died with it."""
        self._ring.clear()
        self._tx_epoch = None
        if self._encoder is not None:
            self._encoder.reset()
        self.link.reset()

    # -- receiver side ---------------------------------------------------------

    def _arrive(self, wire: bytes) -> None:
        self._ingest(wire, retransmit=False)

    def _arrive_retransmit(self, wire: bytes) -> None:
        self._ingest(wire, retransmit=True)

    def _ingest(self, wire: bytes, retransmit: bool) -> None:
        hdr = peek_header(wire)
        if hdr is None:
            # a corrupted frame that no longer reads as one of ours dies
            # here, counted, instead of poisoning the relay
            self.stats.corrupt_dropped += 1
            return
        ptype, channel_id, seq, epoch = hdr
        if ptype == TYPE_FEC:
            self._on_parity(wire)
            return
        if not self._resequencing:
            self._deliver_cb(wire)
            return
        if ptype != TYPE_DATA:
            self._deliver_cb(wire)
            return
        if self._reassembler is not None:
            # buffer for future parity; any groups this frame completes
            # repair *now*, and the repairs (earlier seqs) are injected
            # before this frame so the resequencer sees natural order
            for fixed in self._reassembler.on_data(
                channel_id, seq, epoch, wire
            ):
                fhdr = peek_header(fixed)
                self._resequence(fixed, fhdr[2], fhdr[3], retransmit=False)
        self._resequence(wire, seq, epoch, retransmit)

    def _on_parity(self, wire: bytes) -> None:
        if self._reassembler is None:
            # a parity frame on a hop not running FEC (policy mismatch
            # across a restart): consumed and useless by definition
            self.fec.wasted += 1
            return
        try:
            pkt = parse_packet(wire)
        except ProtocolError:
            # body crc (or framing) rejected it — a corrupt parity frame
            # never gets near a repair
            self.stats.corrupt_dropped += 1
            return
        for fixed in self._reassembler.on_parity(pkt):
            fhdr = peek_header(fixed)
            self._resequence(fixed, fhdr[2], fhdr[3], retransmit=False)

    def _resequence(
        self, wire: bytes, seq: int, epoch: int, retransmit: bool
    ) -> None:
        if epoch != self._rx_epoch:
            if retransmit:
                # a replay can only describe the past: a late retransmit
                # from a dead epoch must never flush the live
                # resequencer's state or regress its epoch
                self.stats.stale_dropped += 1
                return
            self._flush_all()
            self._rx_epoch = epoch
        if self._next is None:
            if retransmit:
                # never anchor a cold resequencer on a retransmit: it is
                # the one frame guaranteed to be behind the live stream
                # (a restart-during-recovery would re-anchor at a stale
                # seq and abandon its way forward through a phantom gap)
                self.stats.stale_dropped += 1
                return
            self._deliver_cb(wire)
            self._next = (seq + 1) % SEQ_MOD
            return
        d = seq_delta(seq, self._next)
        if d >= SEQ_MOD // 2:
            # behind the resequencer: a late original whose gap was
            # already abandoned, or a retransmit racing its own original
            self.stats.stale_dropped += 1
            return
        if d == 0:
            if self._missing.pop(seq, None) is not None:
                self.stats.recovered += 1
            self._deliver_cb(wire)
            self._next = (seq + 1) % SEQ_MOD
            self._drain()
            return
        # ahead of a gap: park it and account what is now known missing
        if seq in self._hold:
            self.stats.stale_dropped += 1  # duplicate of a parked frame
            return
        if self._missing.pop(seq, None) is not None:
            self.stats.recovered += 1
        self._hold[seq] = wire
        self._register_gap(d)
        self._drain()

    def _register_gap(self, d: int) -> None:
        """Track the gap positions in ``[_next, _next + d)``."""
        # the sender's ring only holds retransmit_buffer frames: a wider
        # gap (e.g. across relay downtime) is unrecoverable up front —
        # skip the hopeless prefix instead of NACKing into the void
        hopeless = max(0, d - self.retransmit_buffer)
        for _ in range(hopeless):
            if self._next in self._hold or self._next in self._missing:
                break
            self.stats.abandoned += 1
            self._next = (self._next + 1) % SEQ_MOD
            d -= 1
        now = self.sim.now
        deadline = now + self.recover_timeout
        fresh = []
        cursor = self._next
        for _ in range(d):
            if cursor not in self._hold and cursor not in self._missing:
                self._missing[cursor] = deadline
                fresh.append(cursor)
            cursor = (cursor + 1) % SEQ_MOD
        if fresh:
            if self.nack:
                self.sim.schedule(
                    self.nack_delay, self._nack_check, tuple(fresh),
                    self._gen,
                )
            # FEC-only hops still need the abandon deadline — repair or
            # not, the stream must keep moving with zero reverse traffic
            self.sim.schedule(
                self.recover_timeout, self._deadline_check, self._gen
            )

    def _nack_check(self, seqs, gen: int) -> None:
        if gen != self._gen:
            return
        still = tuple(s for s in seqs if s in self._missing)
        if not still:
            return
        self.stats.nacks_sent += 1
        # the NACK rides the reverse path: one propagation delay, then
        # the sender replays whatever its bounded ring still holds
        self.sim.schedule(
            self.link.latency, self._do_retransmit, still, gen
        )

    def _deadline_check(self, gen: int) -> None:
        if gen != self._gen:
            return
        self._drain()

    def _drain(self) -> None:
        """Deliver everything owed downstream, in order, skipping gap
        positions whose recovery deadline has passed."""
        now = self.sim.now
        while True:
            nxt = self._next
            if nxt in self._hold:
                wire = self._hold.pop(nxt)
                self._deliver_cb(wire)
                self._next = (nxt + 1) % SEQ_MOD
            elif nxt in self._missing and now >= self._missing[nxt]:
                del self._missing[nxt]
                self.stats.abandoned += 1
                self._next = (nxt + 1) % SEQ_MOD
            else:
                break
        # bound the parking lot: if the hold buffer outgrew the ring,
        # give up on the frontmost gap and flush forward
        while len(self._hold) > self.retransmit_buffer:
            nxt = self._next
            if nxt in self._missing:
                del self._missing[nxt]
                self.stats.abandoned += 1
            elif nxt in self._hold:
                self._deliver_cb(self._hold.pop(nxt))
            self._next = (nxt + 1) % SEQ_MOD

    def _flush_all(self) -> None:
        """Epoch boundary: drain held frames of the dying epoch in seq
        order, abandon its gaps, and restart clean."""
        base = self._next
        if base is not None:
            for seq in sorted(self._hold, key=lambda s: seq_delta(s, base)):
                self._deliver_cb(self._hold[seq])
        self.stats.abandoned += len(self._missing)
        self._hold.clear()
        self._missing.clear()
        self._next = None
        self._gen += 1

    def reset_receiver(self) -> None:
        """The receiving node cold-started: parked frames and gap state
        were in its RAM.  Held frames were delivered by the link but die
        here, so they count as resequencer drops for the ledger."""
        self.stats.stale_dropped += len(self._hold)
        self._hold.clear()
        self._missing.clear()
        self._next = None
        self._rx_epoch = None
        self._gen += 1
        if self._reassembler is not None:
            self._reassembler.reset()


@dataclass
class RelayStats:
    uplink_rx: int = 0        # well-formed packets heard from the uplink
    forwarded: int = 0        # packets fanned out (once per packet)
    lan_sent: int = 0         # packets re-multicast onto a leaf LAN
    dropped_down: int = 0     # arrivals while crashed or hung
    garbage_rx: int = 0       # arrivals that failed the header peek/parse
    filler_data: int = 0      # fallback data blocks minted
    filler_controls: int = 0  # fallback control packets minted
    fallbacks: int = 0        # times the local fallback source started
    standdowns: int = 0       # times the uplink reappeared and won
    restarts: int = 0         # cold restarts after a crash


class RelayNode:
    """A tandem-free forwarder in the WAN relay tree.

    Ingests wire packets from its uplink hop, classifies them from the
    common header alone (zero-copy, no payload decode), and fans the
    compressed bytes out unchanged to its downlink hops and — for leaf
    relays — onto a local LAN multicast group.

    **Fallback** (``fallback=True``): a cadence watchdog declares the
    uplink dead after ``fallback_timeout`` of silence and starts a local
    filler source — synthetic silence blocks plus control packets that
    continue the uplink's playout schedule under a fresh epoch, so leaf
    speakers re-anchor once and keep a live (if silent) stream instead
    of underrunning indefinitely.  When an uplink control reappears the
    relay stands down immediately, Liquidsoap-style, and from then on
    maps upstream epochs forward (serial-16) past the fallback epoch so
    downstream listeners re-anchor onto the recovered stream.

    Epoch mapping is per channel and *identity by default*: a relay that
    never interposed a fallback forwards bytes verbatim, which keeps a
    lossless multi-tier tree bit-identical to a single-tier one.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "relay0",
        fallback: bool = False,
        fallback_timeout: float = 1.5,
        check_interval: float = 0.25,
        control_interval: float = 1.0,
        telemetry=None,
    ):
        if fallback_timeout <= 0:
            raise ValueError("fallback_timeout must be positive")
        self.sim = sim
        self.name = name
        self.fallback_enabled = fallback
        self.fallback_timeout = fallback_timeout
        self.check_interval = check_interval
        self.control_interval = control_interval
        self.alive = True
        self.frozen = False
        self.stats = RelayStats()
        tel = telemetry if telemetry is not None else get_telemetry()
        self.telemetry = tel
        self._c_fwd = tel.counter(f"relay.forwarded[{name}]")
        self._c_filler = tel.counter(f"relay.filler[{name}]")
        self.downlinks: List[WanHop] = []
        self.leaf_lans: List = []           # LeafLan records (system glue)
        self.uplink: Optional[WanHop] = None
        self._lan_egress: Dict[int, List[Callable[[bytes], None]]] = {}
        self._cadence = CadenceMonitor(fallback_timeout)
        # -- per-channel relay RAM (all lost on a cold restart) --
        self._epoch_offset: Dict[int, int] = {}
        self._last_control: Dict[int, ControlPacket] = {}
        self._ctrl_heard_at: Dict[int, float] = {}
        self._last_data_wire: Dict[int, bytes] = {}
        self._fb_epoch: Dict[int, int] = {}   # channel -> fallback epoch
        self._fb_state: Dict[int, dict] = {}  # live filler loop state
        self._fallback_active = False
        self._timer_gen = 0
        if fallback:
            self._arm_watchdog()

    # -- wiring ----------------------------------------------------------------

    def add_downlink(self, hop: WanHop) -> WanHop:
        self.downlinks.append(hop)
        return hop

    def attach_lan(
        self, channel_id: int, egress: Callable[[bytes], None]
    ) -> None:
        """Re-multicast ``channel_id``'s packets through ``egress`` (a
        bound socket's sendto on the leaf segment).  A relay can feed
        several leaf LANs the same channel — egresses accumulate."""
        self._lan_egress.setdefault(channel_id, []).append(egress)

    # -- the forwarding path ---------------------------------------------------

    def ingest(self, wire: bytes) -> None:
        """Uplink delivery callback — the relay's entire receive path."""
        if not self.alive or self.frozen:
            self.stats.dropped_down += 1
            return
        hdr = peek_header(wire)
        if hdr is None:
            self.stats.garbage_rx += 1
            return
        ptype, channel_id, _seq, epoch = hdr
        self.stats.uplink_rx += 1
        self._cadence.heard(self.sim.now)
        if ptype == TYPE_CONTROL:
            try:
                ctl = parse_packet(wire)
            except ProtocolError:
                self.stats.garbage_rx += 1
                return
            self._on_uplink_control(ctl)
        elif ptype == TYPE_DATA:
            # remembered only as filler geometry (pcm size per block);
            # the payload itself is never decoded
            self._last_data_wire[channel_id] = wire
        off = self._epoch_offset.get(channel_id, 0)
        if off:
            wire = restamp_epoch(wire, (epoch + off) % EPOCH_MOD)
        self.stats.forwarded += 1
        self._c_fwd.inc()
        self._fan_out(wire, channel_id)

    def _fan_out(self, wire: bytes, channel_id: int) -> None:
        for hop in self.downlinks:
            hop.send(wire)
        for egress in self._lan_egress.get(channel_id, ()):
            egress(wire)
            self.stats.lan_sent += 1

    def _on_uplink_control(self, ctl: ControlPacket) -> None:
        cid = ctl.channel_id
        self._last_control[cid] = ctl
        self._ctrl_heard_at[cid] = self.sim.now
        if self._fallback_active:
            self._exit_fallback()
        fb = self._fb_epoch.get(cid)
        if fb is not None:
            # the uplink is back: unless it already outran our fallback
            # epoch (say, a real failover bumped it), shift its epochs
            # forward so this control lands *newer* than the filler and
            # every downstream listener re-anchors onto the live stream
            out = (ctl.epoch + self._epoch_offset.get(cid, 0)) % EPOCH_MOD
            if not epoch_newer(out, fb):
                self._epoch_offset[cid] = (fb + 1 - ctl.epoch) % EPOCH_MOD
            del self._fb_epoch[cid]

    # -- fallback source -------------------------------------------------------

    def _arm_watchdog(self) -> None:
        self.sim.schedule(self.check_interval, self._watch, self._timer_gen)

    def _watch(self, gen: int) -> None:
        if gen != self._timer_gen:
            return
        if (
            self.alive and not self.frozen and not self._fallback_active
            and self._cadence.silent(self.sim.now)
        ):
            self._enter_fallback()
        self.sim.schedule(self.check_interval, self._watch, gen)

    def _enter_fallback(self) -> None:
        if not self._last_control:
            # data-only cadence so far: no parameters to mint filler
            # from — keep checking, the first control arms us
            return
        self._fallback_active = True
        self.stats.fallbacks += 1
        self.telemetry.tracer.instant(
            "relay.fallback", track=self.name,
            silence=self._cadence.silence(self.sim.now),
        )
        now = self.sim.now
        for cid, ctl in self._last_control.items():
            cur = (ctl.epoch + self._epoch_offset.get(cid, 0)) % EPOCH_MOD
            fb = self._fb_epoch.get(cid)
            if fb is None or epoch_newer(cur, fb):
                fb = (cur + 1) % EPOCH_MOD
            else:
                # repeated fallbacks without an intervening uplink
                # control keep minting newer incarnations
                fb = (fb + 1) % EPOCH_MOD
            self._fb_epoch[cid] = fb
            last_data = self._last_data_wire.get(cid)
            pcm = None
            if last_data is not None:
                try:
                    pkt = parse_packet(last_data)
                    pcm = pkt.pcm_bytes or len(pkt.payload)
                except ProtocolError:
                    pcm = None
            if not pcm:
                pcm = ctl.params.bytes_for(0.5)
            # continue the uplink's playout schedule: position now =
            # the last control's position plus elapsed time since
            pos = ctl.stream_pos + (now - self._ctrl_heard_at[cid])
            self._fb_state[cid] = {
                "ctl": ctl,
                "fb": fb,
                "pcm": pcm,
                "dur": ctl.params.duration_of(pcm),
                "play_at": pos,
                "anchor": (self._ctrl_heard_at[cid], ctl.stream_pos),
                "dseq": 0,
                "cseq": 0,
            }
            self.sim.schedule(0.0, self._filler_control, cid, self._timer_gen)
            self.sim.schedule(0.0, self._filler_data, cid, self._timer_gen)

    def _filler_control(self, cid: int, gen: int) -> None:
        if gen != self._timer_gen or not self._fallback_active:
            return
        st = self._fb_state[cid]
        if self.alive and not self.frozen:
            st["cseq"] = (st["cseq"] + 1) % SEQ_MOD
            heard_at, base_pos = st["anchor"]
            ctl = st["ctl"]
            packet = ControlPacket(
                channel_id=cid,
                seq=st["cseq"],
                wall_clock=self.sim.now,
                stream_pos=base_pos + (self.sim.now - heard_at),
                params=ctl.params,
                codec_id=ctl.codec_id,
                quality=ctl.quality,
                name=ctl.name,
                epoch=st["fb"],
            )
            self.stats.filler_controls += 1
            self._fan_out(packet.encode(), cid)
        self.sim.schedule(self.control_interval, self._filler_control, cid, gen)

    def _filler_data(self, cid: int, gen: int) -> None:
        if gen != self._timer_gen or not self._fallback_active:
            return
        st = self._fb_state[cid]
        if self.alive and not self.frozen:
            st["dseq"] = (st["dseq"] + 1) % SEQ_MOD
            packet = DataPacket(
                channel_id=cid,
                seq=st["dseq"],
                play_at=st["play_at"],
                payload=b"",
                codec_id=CodecID.RAW,
                synthetic=True,
                pcm_bytes=st["pcm"],
                epoch=st["fb"],
            )
            st["play_at"] += st["dur"]
            self.stats.filler_data += 1
            self._c_filler.inc()
            self._fan_out(packet.encode(), cid)
        self.sim.schedule(st["dur"], self._filler_data, cid, gen)

    def _exit_fallback(self) -> None:
        self._fallback_active = False
        self._fb_state.clear()
        self.stats.standdowns += 1
        self.telemetry.tracer.instant("relay.standdown", track=self.name)
        # invalidate the filler loops, then re-arm the watchdog fresh
        self._timer_gen += 1
        if self.fallback_enabled:
            self._arm_watchdog()

    # -- node faults -----------------------------------------------------------

    def crash(self) -> None:
        """Abrupt death: stop forwarding, timers die, RAM is toast (the
        wipe is observable at :meth:`restart`, the cold boot)."""
        if not self.alive:
            return
        self.alive = False
        self.frozen = False
        self._fallback_active = False
        self._timer_gen += 1

    def hang(self) -> None:
        """Wedged: drops everything on the floor without exiting."""
        self.frozen = True

    def unhang(self) -> None:
        self.frozen = False

    def restart(self) -> None:
        """Cold start after a crash (or a driven recovery from a hang).

        All relay RAM is lost: remembered controls, epoch offsets,
        fallback bookkeeping, the downlinks' retransmit rings and
        serialisation backlogs, and the uplink's resequencer state.  A
        restarted relay that had interposed a fallback epoch can no
        longer map it — recovery then comes from *below*: any child
        relay (or leaf) with its own fallback source re-maps the
        regressed epochs when its uplink cadence returns.
        """
        self.alive = True
        self.frozen = False
        self._fallback_active = False
        self._timer_gen += 1
        self._epoch_offset.clear()
        self._last_control.clear()
        self._ctrl_heard_at.clear()
        self._last_data_wire.clear()
        self._fb_epoch.clear()
        self._fb_state.clear()
        self._cadence.reset()
        self.stats.restarts += 1
        for hop in self.downlinks:
            hop.reset_sender()
        if self.uplink is not None:
            self.uplink.reset_receiver()
        if self.fallback_enabled:
            self._arm_watchdog()
