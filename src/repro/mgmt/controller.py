"""Fleet controller: registry, enumeration, connection management.

The ACMP/AECP half of the dynamic control plane (after IEEE 1722.1
§8/§9).  A :class:`FleetController` listens on the discovery group and
keeps the authoritative fleet map the paper's census only approximates
by polling:

* **registry** — every ``ENTITY_AVAILABLE`` advert inserts or refreshes
  an :class:`EntityRecord`; refreshes must carry a *newer* serial-16
  ``available_index`` (:func:`repro.core.protocol.index_newer`) or they
  are counted as stale and ignored, so replayed or reordered adverts can
  never resurrect an old view.  ``ENTITY_DEPARTING`` retires a record
  immediately; anything else ages out when its advertised ``valid_time``
  lease lapses.
* **AECP enumeration** — the controller reads an entity's descriptor
  (channels served, gain, name) over the management request path with a
  seeded-timeout retry loop.
* **ACMP connection management** — tune/retune becomes a
  CONNECT_RX/DISCONNECT_RX transaction: command to the listener's
  management agent, response matched by sequence number, seeded
  exponential-ish timeout back-off, bounded retries, failure counted —
  never silent.

Lease expiry doubles as a health signal: when a supervisor is bound via
:meth:`FleetController.bind_supervisor`, an expired lease calls
``supervisor.notify_lease_expired(name)``, which schedules the same
guarded restart path heartbeat loss does (the ``restart_pending`` latch
prevents double restarts when both signals fire).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.protocol import (
    ACMP_CONNECT_RX_COMMAND,
    ACMP_CONNECT_RX_RESPONSE,
    ACMP_DISCONNECT_RX_COMMAND,
    ACMP_DISCONNECT_RX_RESPONSE,
    ACMP_OK,
    ADP_AVAILABLE,
    ADP_DEPARTING,
    ADP_DISCOVER,
    AECP_COMMAND,
    AECP_OK,
    AECP_READ_DESCRIPTOR,
    AECP_RESPONSE,
    ENTITY_CONTROLLER,
    AcmpPacket,
    AdpPacket,
    AecpPacket,
    ProtocolError,
    index_newer,
    parse_packet,
)
from repro.mgmt.discovery import (
    DEFAULT_VALID_TIME,
    DISCOVERY_GROUP,
    DISCOVERY_PORT,
    DISCOVERY_SOLICIT_GROUP,
    lease_deadline,
    lease_expired,
)
from repro.metrics.telemetry import get_telemetry
from repro.platform.archive import unpack_archive
from repro.sim.process import Process, Timeout

#: registry entity states
ENT_AVAILABLE = "available"
ENT_DEPARTED = "departed"
ENT_EXPIRED = "expired"


@dataclass
class EntityRecord:
    """One fleet node as the controller currently believes it to be."""

    entity_id: int
    kind: int
    name: str
    ip: str
    mgmt_port: int
    channel_id: int
    valid_time: float
    available_index: int
    epoch: int
    last_seen: float
    state: str = ENT_AVAILABLE
    descriptor: Optional[Dict[str, str]] = None
    #: (group_ip, port, channel_id) of the stream this controller
    #: connected the entity to, if any
    connected: Optional[Tuple[str, int, int]] = None
    expired_at: Optional[float] = None

    @property
    def serving(self) -> int:
        """Channel the entity is on: controller-connected view first,
        falling back to what the entity itself advertises."""
        if self.connected is not None:
            return self.connected[2]
        return self.channel_id


@dataclass
class ControllerStats:
    adp_advertises: int = 0        # AVAILABLEs accepted (fresh)
    stale_adverts: int = 0         # AVAILABLEs rejected by serial check
    departs: int = 0               # clean DEPARTINGs honoured
    expiries: int = 0              # leases that lapsed (zombies aged out)
    enumerations: int = 0          # AECP descriptor reads completed
    enumeration_retries: int = 0
    enumeration_failures: int = 0
    acmp_connects: int = 0         # CONNECT transactions completed
    acmp_disconnects: int = 0
    acmp_retries: int = 0
    acmp_failures: int = 0         # transactions that exhausted retries
    pruned: int = 0                # dead records garbage-collected
    restarts: int = 0              # controller cold restarts
    discovers_sent: int = 0        # ENTITY_DISCOVER solicitations sent


class FleetController:
    """The administrative-domain controller (one per deployment).

    Runs on its own machine — preferentially on a management-only
    segment so registry churn cannot contend with audio traffic.

    The lease scan runs after every inbound PDU and every idle
    ``check_interval``, but a record only changes state when its lease
    lapses or, with ``prune_after`` set, when a dead record comes due
    for pruning.  The controller keeps a lower bound on the earliest such
    instant (``_next_change``) and skips scans before it: each
    registry write in :meth:`_handle_adp` lowers the bound, each full
    scan recomputes it.  ``default_valid_time`` and ``prune_after`` feed
    the bound, so they are fixed at construction.
    """

    #: CPU cycles to process one inbound PDU or send one command
    PROCESS_CYCLES = 2000

    def __init__(
        self,
        machine,
        name: str = "controller0",
        group: str = DISCOVERY_GROUP,
        port: int = DISCOVERY_PORT,
        check_interval: float = 0.25,
        default_valid_time: float = DEFAULT_VALID_TIME,
        txn_timeout: float = 0.25,
        txn_retries: int = 3,
        timeout_jitter: float = 0.5,
        seed: int = 0,
        prune_after: Optional[float] = None,
        auto_enumerate: bool = False,
        telemetry=None,
    ):
        self.machine = machine
        self.sim = machine.sim
        self.name = name
        self.group = group
        self.port = port
        self.check_interval = check_interval
        self.default_valid_time = default_valid_time
        self.txn_timeout = txn_timeout
        self.txn_retries = txn_retries
        self.timeout_jitter = timeout_jitter
        self.seed = seed
        self.prune_after = prune_after
        self.auto_enumerate = auto_enumerate
        self.stack = machine.control_stack
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self._c_adv = self.telemetry.counter(f"ctl.adp_advertises[{name}]")
        self._c_exp = self.telemetry.counter(f"ctl.adp_expiries[{name}]")
        self._c_conn = self.telemetry.counter(f"ctl.acmp_connects[{name}]")
        self._c_fail = self.telemetry.counter(f"ctl.acmp_failures[{name}]")
        self._c_enum = self.telemetry.counter(f"ctl.enumerations[{name}]")
        self.entities: Dict[int, EntityRecord] = {}
        self.stats = ControllerStats()
        self.supervisor = None
        self.on_available: Optional[Callable[[EntityRecord, bool], None]] = None
        self.on_departed: Optional[Callable[[EntityRecord], None]] = None
        self.on_expired: Optional[Callable[[EntityRecord], None]] = None
        self.on_connected: Optional[
            Callable[[EntityRecord, int], None]
        ] = None
        self.on_disconnected: Optional[Callable[[EntityRecord], None]] = None
        self._rng = random.Random(seed)
        self._seq = 0
        self._listener: Optional[Process] = None
        self._sock = None  # the listener's socket
        self._txns: List[Process] = []
        #: no record can expire or come due for pruning at or before this
        #: instant, so a lease scan up to it would find nothing to do
        self._next_change = math.inf

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Process:
        self._listener = self.machine.spawn(
            self._listen(), name=f"{self.name}/adp-listen"
        )
        return self._listener

    def crash(self) -> None:
        """Kill the controller mid-flight: listener and every in-flight
        transaction die where they stand.  The registry is *not* wiped
        here — a crashed box keeps its RAM until someone reboots it.

        The listener's socket is closed now: a kill cannot land inside a
        CPU slice, and a restart must find the discovery port free."""
        if self._listener is not None:
            self._listener.kill()
            self._listener = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        for txn in self._txns:
            txn.kill()
        self._txns.clear()

    def restart(self) -> Process:
        """Cold restart: the registry starts empty (leases are not
        persisted) and repopulates from live advertisements within one
        advertising interval."""
        self.crash()
        self.entities.clear()
        self._next_change = math.inf
        self._rng = random.Random(self.seed)
        self.stats.restarts += 1
        return self.start()

    @property
    def alive(self) -> bool:
        return self._listener is not None and self._listener.alive

    def bind_supervisor(self, supervisor) -> None:
        """Route lease expiries into ``supervisor.notify_lease_expired``
        keyed by the entity's advertised name."""
        self.supervisor = supervisor

    # -- registry queries ----------------------------------------------------

    def available(self) -> List[EntityRecord]:
        return [
            r for r in self.entities.values() if r.state == ENT_AVAILABLE
        ]

    def find(self, name: str) -> Optional[EntityRecord]:
        for rec in self.entities.values():
            if rec.name == name:
                return rec
        return None

    def fleet_map(self) -> Dict[int, List[str]]:
        """channel_id → sorted names of live entities serving it.

        This is the map the paper's census polls the fleet to rebuild;
        here it falls straight out of the registry."""
        out: Dict[int, List[str]] = {}
        for rec in self.entities.values():
            if rec.state == ENT_AVAILABLE and rec.serving:
                out.setdefault(rec.serving, []).append(rec.name)
        for names in out.values():
            names.sort()
        return out

    def census(self, channel_id: int) -> int:
        """Listener count for a channel, no polling round-trip needed."""
        return len(self.fleet_map().get(channel_id, []))

    # -- ADP listener --------------------------------------------------------

    def _listen(self):
        sock = self.stack.socket(self.port)
        sock.join_multicast(self.group)
        self._sock = sock
        try:
            # cold-boot census: solicit the fleet instead of waiting out
            # every advertiser's periodic interval.  Runs again on
            # restart() for free — restart respawns this listener.
            yield self.machine.cpu.run(self.PROCESS_CYCLES, domain="user")
            sock.sendto(
                AdpPacket(
                    entity_id=0,
                    message_type=ADP_DISCOVER,
                    entity_kind=ENTITY_CONTROLLER,
                    name=self.name,
                ).encode(),
                (DISCOVERY_SOLICIT_GROUP, self.port),
            )
            self.stats.discovers_sent += 1
            while True:
                try:
                    msg = yield Timeout(sock.recv(), self.check_interval)
                except TimeoutError:
                    self._scan_leases()
                    continue
                yield self.machine.cpu.run(
                    self.PROCESS_CYCLES, domain="user"
                )
                try:
                    pkt = parse_packet(msg.payload)
                except ProtocolError:
                    continue
                if isinstance(pkt, AdpPacket):
                    self._handle_adp(pkt, msg.src)
                self._scan_leases()
        finally:
            # a kill that lands late, after crash() closed this socket and
            # a restart bound the port again, must not close the new one
            if self._sock is sock:
                sock.close()
                self._sock = None

    def _handle_adp(self, pkt: AdpPacket, src: Tuple[str, int]) -> None:
        rec = self.entities.get(pkt.entity_id)
        if pkt.message_type == ADP_AVAILABLE:
            if rec is not None and rec.state == ENT_AVAILABLE:
                if not index_newer(pkt.available_index, rec.available_index):
                    self.stats.stale_adverts += 1
                    return
                rec.ip = src[0]
                rec.mgmt_port = pkt.mgmt_port
                rec.channel_id = pkt.channel_id
                rec.valid_time = pkt.valid_time
                rec.available_index = pkt.available_index
                rec.epoch = pkt.epoch
                rec.last_seen = self.sim.now
                self._note_change(rec)
                self.stats.adp_advertises += 1
                self._c_adv.inc()
                return
            returning = rec is not None
            rec = EntityRecord(
                entity_id=pkt.entity_id,
                kind=pkt.entity_kind,
                name=pkt.name,
                ip=src[0],
                mgmt_port=pkt.mgmt_port,
                channel_id=pkt.channel_id,
                valid_time=pkt.valid_time,
                available_index=pkt.available_index,
                epoch=pkt.epoch,
                last_seen=self.sim.now,
            )
            self.entities[pkt.entity_id] = rec
            self._note_change(rec)
            self.stats.adp_advertises += 1
            self._c_adv.inc()
            if self.on_available is not None:
                self.on_available(rec, returning)
            if self.auto_enumerate and rec.mgmt_port:
                self.enumerate(rec.entity_id)
        elif pkt.message_type == ADP_DEPARTING:
            if rec is not None and rec.state == ENT_AVAILABLE:
                rec.state = ENT_DEPARTED
                rec.last_seen = self.sim.now
                self._note_change(rec)
                self.stats.departs += 1
                if self.on_departed is not None:
                    self.on_departed(rec)

    def _change_at(self, rec: EntityRecord) -> float:
        """A lower bound on when ``rec`` next changes state.  Each bound
        is the same float expression its test in :meth:`_scan_leases`
        compares ``now`` against, so ``now <= bound`` means the test is
        still false."""
        if rec.state == ENT_AVAILABLE:
            return lease_deadline(
                rec.last_seen, rec.valid_time or self.default_valid_time
            )
        prune_after = self.prune_after
        if prune_after is None:
            return math.inf  # dead records are kept forever
        # the prune test subtracts (``now - last_seen > prune_after``):
        # step down past any rounding so the bound never lies late
        bound = rec.last_seen + prune_after
        while bound - rec.last_seen > prune_after:
            bound = math.nextafter(bound, -math.inf)
        return bound

    def _note_change(self, rec: EntityRecord) -> None:
        self._next_change = min(self._next_change, self._change_at(rec))

    def _scan_leases(self) -> None:
        now = self.sim.now
        if now <= self._next_change:
            return
        dead: List[int] = []
        for rec in self.entities.values():
            if rec.state == ENT_AVAILABLE:
                valid = rec.valid_time or self.default_valid_time
                if lease_expired(now, rec.last_seen, valid):
                    rec.state = ENT_EXPIRED
                    rec.expired_at = now
                    self.stats.expiries += 1
                    self._c_exp.inc()
                    if self.supervisor is not None:
                        self.supervisor.notify_lease_expired(rec.name)
                    if self.on_expired is not None:
                        self.on_expired(rec)
            if (
                self.prune_after is not None
                and rec.state in (ENT_DEPARTED, ENT_EXPIRED)
                and now - rec.last_seen > self.prune_after
            ):
                dead.append(rec.entity_id)
        for entity_id in dead:
            del self.entities[entity_id]
            self.stats.pruned += 1
        self._next_change = min(
            map(self._change_at, self.entities.values()), default=math.inf
        )

    # -- transactions --------------------------------------------------------

    def _track(self, proc: Process) -> Process:
        """Remember an in-flight transaction so :meth:`crash` can kill
        it, forgetting the ones that already finished."""
        self._txns = [t for t in self._txns if t.alive]
        self._txns.append(proc)
        return proc

    def _txn_deadline(self, attempt: int) -> float:
        """Seeded retry timeout: linear back-off plus deterministic
        jitter drawn from the controller's RNG."""
        jitter = 1.0 + self._rng.random() * self.timeout_jitter
        return self.txn_timeout * (attempt + 1) * jitter

    def enumerate(self, entity_id: int) -> Process:
        """Spawn an AECP READ_DESCRIPTOR transaction; the process result
        is ``True`` on success."""
        rec = self.entities[entity_id]
        proc = self.machine.spawn(
            self._enumerate(rec), name=f"{self.name}/aecp:{rec.name}"
        )
        return self._track(proc)

    def _enumerate(self, rec: EntityRecord):
        sock = self.stack.socket()
        try:
            for attempt in range(self.txn_retries):
                if attempt:
                    self.stats.enumeration_retries += 1
                self._seq += 1
                seq = self._seq
                cmd = AecpPacket(
                    entity_id=rec.entity_id,
                    message_type=AECP_COMMAND,
                    command=AECP_READ_DESCRIPTOR,
                    seq=seq,
                )
                yield self.machine.cpu.run(
                    self.PROCESS_CYCLES, domain="user"
                )
                sock.sendto(cmd.encode(), (rec.ip, rec.mgmt_port))
                deadline = self.sim.now + self._txn_deadline(attempt)
                while True:
                    remaining = deadline - self.sim.now
                    if remaining <= 0:
                        break
                    try:
                        msg = yield Timeout(sock.recv(), remaining)
                    except TimeoutError:
                        break
                    try:
                        pkt = parse_packet(msg.payload)
                    except ProtocolError:
                        continue
                    if (
                        isinstance(pkt, AecpPacket)
                        and pkt.message_type == AECP_RESPONSE
                        and pkt.seq == seq
                        and pkt.entity_id == rec.entity_id
                        and pkt.status == AECP_OK
                    ):
                        try:
                            fields = unpack_archive(bytes(pkt.payload))
                        except ValueError:
                            continue
                        rec.descriptor = {
                            k: v.decode("utf-8", errors="replace")
                            for k, v in fields.items()
                        }
                        self.stats.enumerations += 1
                        self._c_enum.inc()
                        return True
            self.stats.enumeration_failures += 1
            return False
        finally:
            sock.close()

    def connect(
        self,
        listener_entity_id: int,
        group_ip: str,
        port: int,
        channel_id: int,
        talker_entity_id: int = 0,
    ) -> Process:
        """Spawn an ACMP CONNECT_RX transaction tuning the listener to a
        talker's stream; the process result is ``True`` on success."""
        rec = self.entities[listener_entity_id]
        proc = self.machine.spawn(
            self._acmp(
                rec, ACMP_CONNECT_RX_COMMAND,
                group_ip, port, channel_id, talker_entity_id,
            ),
            name=f"{self.name}/acmp-connect:{rec.name}",
        )
        return self._track(proc)

    def disconnect(
        self, listener_entity_id: int, talker_entity_id: int = 0
    ) -> Process:
        """Spawn an ACMP DISCONNECT_RX transaction parking the listener."""
        rec = self.entities[listener_entity_id]
        proc = self.machine.spawn(
            self._acmp(
                rec, ACMP_DISCONNECT_RX_COMMAND,
                "0.0.0.0", 0, 0, talker_entity_id,
            ),
            name=f"{self.name}/acmp-disconnect:{rec.name}",
        )
        return self._track(proc)

    def _acmp(
        self,
        rec: EntityRecord,
        message_type: int,
        group_ip: str,
        port: int,
        channel_id: int,
        talker_entity_id: int,
    ):
        want = (
            ACMP_CONNECT_RX_RESPONSE
            if message_type == ACMP_CONNECT_RX_COMMAND
            else ACMP_DISCONNECT_RX_RESPONSE
        )
        sock = self.stack.socket()
        try:
            for attempt in range(self.txn_retries):
                if attempt:
                    self.stats.acmp_retries += 1
                self._seq += 1
                seq = self._seq
                cmd = AcmpPacket(
                    message_type=message_type,
                    talker_entity_id=talker_entity_id,
                    listener_entity_id=rec.entity_id,
                    group_ip=group_ip,
                    port=port,
                    channel_id=channel_id,
                    seq=seq,
                )
                yield self.machine.cpu.run(
                    self.PROCESS_CYCLES, domain="user"
                )
                sock.sendto(cmd.encode(), (rec.ip, rec.mgmt_port))
                deadline = self.sim.now + self._txn_deadline(attempt)
                while True:
                    remaining = deadline - self.sim.now
                    if remaining <= 0:
                        break
                    try:
                        msg = yield Timeout(sock.recv(), remaining)
                    except TimeoutError:
                        break
                    try:
                        pkt = parse_packet(msg.payload)
                    except ProtocolError:
                        continue
                    if (
                        isinstance(pkt, AcmpPacket)
                        and pkt.message_type == want
                        and pkt.seq == seq
                        and pkt.listener_entity_id == rec.entity_id
                        and pkt.status == ACMP_OK
                    ):
                        if message_type == ACMP_CONNECT_RX_COMMAND:
                            rec.connected = (group_ip, port, channel_id)
                            self.stats.acmp_connects += 1
                            self._c_conn.inc()
                            if self.on_connected is not None:
                                self.on_connected(rec, channel_id)
                        else:
                            rec.connected = None
                            rec.channel_id = 0
                            self.stats.acmp_disconnects += 1
                            if self.on_disconnected is not None:
                                self.on_disconnected(rec)
                        return True
            self.stats.acmp_failures += 1
            self._c_fail.inc()
            return False
        finally:
            sock.close()
