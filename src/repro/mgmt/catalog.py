"""The out-of-band channel catalog (§4.3, after StarBurst MFTP).

The announcer multicasts the list of live channels on a dedicated group;
speakers learn what is playable without joining every stream.  The
announcer also implements the MSNIP-flavoured economy measure: a channel
whose listener count (reported out of band by the management layer) is
zero can be suspended "if it notices that there are no listeners".

Catalog entries ride the same lease machinery as entity discovery
(:mod:`repro.mgmt.discovery`): every announcement carries a ``valid_time``
and listeners age entries out when the lease lapses — locally-configured
expiry is only the fallback for pre-lease announcers.  The announcer
probes each channel's talker before advertising it, so a crashed
rebroadcaster's channel stops being advertised immediately and a remote
cycling through the catalog can never tune to a dead channel for longer
than one lease.  Announcements are freshness-checked by serial sequence
number, so a delayed or replayed announcement cannot resurrect entries a
newer one retired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.channel import ChannelConfig
from repro.core.protocol import (
    SEQ_MOD,
    AnnounceEntry,
    AnnouncePacket,
    ProtocolError,
    parse_packet,
    seq_delta,
)
from repro.mgmt.discovery import lease_expired
from repro.sim.process import Process, Sleep

CATALOG_GROUP = "239.192.255.1"
CATALOG_PORT = 4999


class CatalogAnnouncer:
    """Producer-side: periodically advertise the live channels.

    ``valid_time`` is the lease stamped into every announcement; it
    defaults to three announcement intervals so two consecutive
    announcements can be lost before listeners age the catalog out.
    ``add_channel`` optionally takes a liveness probe for the channel's
    talker — a channel whose probe fails is withheld from the
    announcement exactly like a suspended one.
    """

    def __init__(self, machine, interval: float = 1.0,
                 group: str = CATALOG_GROUP, port: int = CATALOG_PORT,
                 valid_time: Optional[float] = None,
                 authenticator=None):
        self.machine = machine
        self.interval = interval
        self.group = group
        self.port = port
        self.valid_time = (
            valid_time if valid_time is not None else 3.0 * interval
        )
        #: §5.1: sign announcements so "fake advertisements from
        #: impostors" fail verification at the speakers
        self.authenticator = authenticator
        self._channels: Dict[int, ChannelConfig] = {}
        self._probes: Dict[int, Optional[Callable[[], bool]]] = {}
        self._suspended: set[int] = set()
        self.listener_counts: Dict[int, int] = {}
        self.announcements_sent = 0
        self.dead_skipped = 0        # probe-failed channels withheld
        self._seq = 0

    def add_channel(
        self,
        channel: ChannelConfig,
        probe: Optional[Callable[[], bool]] = None,
    ) -> None:
        self._channels[channel.channel_id] = channel
        self._probes[channel.channel_id] = probe

    def suspend(self, channel_id: int) -> None:
        """MSNIP-style: stop advertising a listenerless channel."""
        self._suspended.add(channel_id)

    def resume(self, channel_id: int) -> None:
        self._suspended.discard(channel_id)

    def report_listeners(self, channel_id: int, count: int) -> None:
        """Out-of-band listener census; zero listeners suspends."""
        self.listener_counts[channel_id] = count
        if count == 0:
            self.suspend(channel_id)
        else:
            self.resume(channel_id)

    def live_entries(self) -> List[AnnounceEntry]:
        out = []
        for ch in self._channels.values():
            if ch.channel_id in self._suspended:
                continue
            probe = self._probes.get(ch.channel_id)
            if probe is not None and not probe():
                # the talker is dead: advertising its channel would hand
                # remotes a stream that can never play
                self.dead_skipped += 1
                continue
            out.append(
                AnnounceEntry(
                    channel_id=ch.channel_id,
                    group_ip=ch.group_ip,
                    port=ch.port,
                    codec_id=ch.codec_id,
                    name=ch.name,
                )
            )
        return out

    def start(self) -> Process:
        return self.machine.spawn(self._run(), name="catalog-announcer")

    def _run(self):
        sock = self.machine.net.socket()
        while True:
            self._seq += 1
            packet = AnnouncePacket(
                seq=self._seq,
                entries=tuple(self.live_entries()),
                valid_time=self.valid_time,
            )
            yield self.machine.cpu.run(5_000, domain="user")
            wire = packet.encode()
            if self.authenticator is not None:
                yield self.machine.cpu.run(
                    self.authenticator.sign_cycles(len(wire)), domain="user"
                )
                wire = self.authenticator.wrap(wire)
            sock.sendto(wire, (self.group, self.port))
            self.announcements_sent += 1
            yield Sleep(self.interval)


@dataclass
class CatalogEntryState:
    entry: AnnounceEntry
    last_seen: float
    valid_time: float = 0.0     # 0 = announcer predates leases


class CatalogListener:
    """Speaker-side: track the advertised channels; entries expire.

    Each entry lives for the ``valid_time`` its announcement advertised
    (the local ``expiry`` only backstops lease-less announcers), and a
    lapsed entry is deleted, not merely filtered — the dict cannot grow
    without bound under churn.  Announcements older (by serial
    comparison) than the newest one seen *from the same source* are
    dropped as stale — sequences are per-announcer streams.
    """

    def __init__(self, machine, expiry: float = 5.0,
                 group: str = CATALOG_GROUP, port: int = CATALOG_PORT,
                 trusted_names: Optional[set] = None, verifier=None):
        self.machine = machine
        self.expiry = expiry
        self.group = group
        self.port = port
        #: optional allow-list against impostor advertisements (§5.1)
        self.trusted_names = trusted_names
        #: optional signature verification (the proper §5.1 answer)
        self.verifier = verifier
        self.channels: Dict[int, CatalogEntryState] = {}
        self.rejected = 0
        self.stale_announces = 0
        self.expired = 0
        #: highest seq seen per announcer source IP — sequences are
        #: per-announcer streams, so freshness must be judged per source
        #: (one announcer's cadence must not mask another's)
        self._last_seq: Dict[str, int] = {}

    def start(self) -> Process:
        return self.machine.spawn(self._run(), name="catalog-listener")

    def _lease(self, st: CatalogEntryState) -> float:
        return st.valid_time if st.valid_time > 0 else self.expiry

    def _prune(self) -> None:
        now = self.machine.sim.now
        dead = [
            cid for cid, st in self.channels.items()
            if lease_expired(now, st.last_seen, self._lease(st))
        ]
        for cid in dead:
            del self.channels[cid]
            self.expired += 1

    def live_channels(self) -> List[AnnounceEntry]:
        self._prune()
        return [st.entry for st in self.channels.values()]

    def find(self, name: str) -> Optional[AnnounceEntry]:
        for entry in self.live_channels():
            if entry.name == name:
                return entry
        return None

    def _run(self):
        sock = self.machine.net.socket(self.port)
        sock.join_multicast(self.group)
        while True:
            msg = yield sock.recv()
            wire = msg.payload
            if self.verifier is not None:
                yield self.machine.cpu.run(
                    self.verifier.verify_cycles(len(wire)), domain="user"
                )
                wire = self.verifier.unwrap(wire)
                if wire is None:
                    self.rejected += 1
                    continue
            try:
                packet = parse_packet(wire)
            except ProtocolError:
                continue
            if not isinstance(packet, AnnouncePacket):
                continue
            source = msg.src[0]
            last = self._last_seq.get(source)
            if last is not None:
                delta = seq_delta(packet.seq, last)
                # 0 = duplicate; the upper serial half-window = behind us
                if delta == 0 or delta >= SEQ_MOD // 2:
                    self.stale_announces += 1
                    continue
            self._last_seq[source] = packet.seq
            now = self.machine.sim.now
            for entry in packet.entries:
                if (
                    self.trusted_names is not None
                    and entry.name not in self.trusted_names
                ):
                    self.rejected += 1
                    continue
                self.channels[entry.channel_id] = CatalogEntryState(
                    entry=entry, last_seen=now, valid_time=packet.valid_time
                )
            self._prune()
