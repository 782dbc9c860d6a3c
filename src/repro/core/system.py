"""High-level builder: assemble a whole Ethernet Speaker deployment.

The public entry point of the library::

    from repro.core import EthernetSpeakerSystem
    from repro.audio import CD_QUALITY, music

    system = EthernetSpeakerSystem(bandwidth_bps=100e6)
    producer = system.add_producer()
    channel = system.add_channel("lobby", params=CD_QUALITY)
    system.add_rebroadcaster(producer, channel)
    speakers = [system.add_speaker(channel=channel) for _ in range(3)]
    system.play_pcm(producer, music(10.0, 44100, seed=1), CD_QUALITY)
    system.run(until=15.0)
    print(system.skew_report(speakers))

Everything is wired to one simulator/LAN; the helpers below are exactly the
glue a test harness or example script would otherwise repeat.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.audio.encodings import encode_samples
from repro.audio.params import AudioParams, CD_QUALITY
from repro.codec.cache import DecodeCache, EncodeCache
from repro.core.channel import ChannelConfig
from repro.core.cohort import SpeakerCohort
from repro.core.failover import WarmStandby
from repro.core.protocol import (
    ENTITY_REBROADCASTER,
    ENTITY_RELAY,
    ENTITY_SPEAKER,
    ENTITY_STANDBY,
)
from repro.core.rebroadcaster import Rebroadcaster
from repro.core.speaker import EthernetSpeaker, SpeakerStats
from repro.kernel.audio import (
    AUDIO_DRAIN,
    AUDIO_SETINFO,
    AudioDevice,
    HardwareAudioDriver,
    SpeakerSink,
)
from repro.kernel.machine import Machine
from repro.kernel.vad import VadPair
from repro.metrics.telemetry import (
    NULL,
    ChannelReport,
    PipelineReport,
    Telemetry,
    sum_stats,
)
from repro.mgmt.controller import FleetController
from repro.mgmt.discovery import DEFAULT_VALID_TIME, EntityAdvertiser
from repro.mgmt.remote import MGMT_PORT, ManagementAgent
from repro.mgmt.supervisor import Supervisor
from repro.net.faults import FaultInjector
from repro.net.monitor import BandwidthMonitor
from repro.net.segment import EthernetSegment
from repro.sim.core import Simulator
from repro.sim.process import Process, Sleep


@dataclass
class ProducerNode:
    machine: Machine
    vad: VadPair


@dataclass(eq=False)
class SpeakerNode:
    machine: Machine
    speaker: EthernetSpeaker
    sink: SpeakerSink
    device: AudioDevice
    channel: Optional[ChannelConfig] = None
    #: populated by :meth:`EthernetSpeakerSystem.advertise_speaker`
    entity_id: Optional[int] = None
    agent: Optional[ManagementAgent] = None
    advertiser: Optional[EntityAdvertiser] = None

    @property
    def stats(self):
        return self.speaker.stats

    @property
    def name(self) -> str:
        return self.speaker.name

    # the node interface, forwarded to the speaker
    def healthy(self) -> bool:
        return self.speaker.healthy()

    def crash(self) -> None:
        self.speaker.crash()

    def hang(self) -> None:
        self.speaker.hang()

    def restart(self) -> Process:
        return self.speaker.restart()

    # the cohort's report reads, for a fleet of one
    members = 1

    def stat_sum(self, field: str) -> int:
        return getattr(self.speaker.stats, field)

    def pending_data(self) -> int:
        return self.speaker.pending_data

    def underruns(self) -> int:
        return self.device.underruns

    def silence_seconds(self) -> float:
        return self.sink.silence_seconds


@dataclass
class LeafLan:
    """A LAN segment at the bottom of the WAN relay tree: the relay's
    gateway host re-multicasts one channel onto it, and speakers and
    cohorts attach with ``lan=leaf``."""

    segment: EthernetSegment
    machine: Machine           # the relay's LAN gateway host
    name: str = ""


class EthernetSpeakerSystem:
    """One LAN, its producer(s), channels, and Ethernet Speakers."""

    def __init__(
        self,
        bandwidth_bps: float = 100e6,
        latency: float = 50e-6,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        seed: int = 0,
        telemetry=False,
    ):
        self.sim = Simulator()
        # telemetry: False/None -> disabled (near-zero overhead), True ->
        # a fresh registry on this system's sim clock, or inject your own
        if telemetry is True:
            telemetry = Telemetry(sim=self.sim)
        elif not telemetry:
            telemetry = NULL
        elif telemetry.enabled:
            # an injected registry now serves this system: bind its clock
            # (and its tracer's) to this simulator so every timestamp is
            # in this run's virtual time
            telemetry.clock = lambda: self.sim.now
            telemetry.tracer.clock = telemetry.clock
        self.telemetry: Telemetry = telemetry
        self.sim.set_telemetry(telemetry)
        #: one decode cache shared by every speaker on this system, so N
        #: speakers on a channel decode each multicast block once (a node
        #: built with ``decode_cache=None`` decodes privately)
        self.decode_cache = DecodeCache(telemetry=telemetry, name="system")
        #: origin-side mirror: one encode cache shared by every
        #: rebroadcaster, so looped playlists and same-source multi-channel
        #: stations encode each raw block once (a rebroadcaster built with
        #: ``encode_cache=None`` encodes every block itself)
        self.encode_cache = EncodeCache(telemetry=telemetry, name="system")
        self.lan = EthernetSegment(
            self.sim,
            bandwidth_bps=bandwidth_bps,
            latency=latency,
            jitter=jitter,
            loss_rate=loss_rate,
            seed=seed,
        )
        self._seed = seed
        #: every segment on this system — the main LAN plus relay-tree
        #: leaf LANs; wire accounting in ``pipeline_report`` sums them
        self.lans: List[EthernetSegment] = [self.lan]
        self.monitor = BandwidthMonitor(self.sim, self.lan,
                                        telemetry=telemetry)
        self.producers: List[ProducerNode] = []
        self.speakers: List[SpeakerNode] = []
        self.cohorts: List[SpeakerCohort] = []
        self.channels: List[ChannelConfig] = []
        self.rebroadcasters: List[Rebroadcaster] = []
        self.fault_injectors: List[FaultInjector] = []
        #: dedicated per-WAN-link injectors (subtree-scaled budgets, so
        #: they are itemised separately from the LAN injectors above)
        self.wan_fault_injectors: List[FaultInjector] = []
        self.standbys: List[WarmStandby] = []
        self.supervisors: List[Supervisor] = []
        self.relays: List[RelayNode] = []
        self.wan_hops: List[WanHop] = []
        #: the frame topology: each node -> the nodes it feeds.  An origin
        #: rebroadcaster or relay feeds WAN hops, a hop its relay, a relay
        #: its leaf segments, and a segment its receivers (speaker nodes
        #: and cohorts); see :meth:`weight`
        self.feeds: Dict[object, list] = {self.lan: []}
        #: the dynamic control plane (ATDECC-style): controllers, entity
        #: advertisers, and management agents, all living on a dedicated
        #: out-of-band management segment (see :meth:`enable_management`)
        self.controllers: List[FleetController] = []
        self.advertisers: List[EntityAdvertiser] = []
        self.mgmt_lan: Optional[EthernetSegment] = None
        #: primary producer id -> standby producer nodes that must receive
        #: a mirror of every source feed played into the primary
        self._mirrors: Dict[int, List[ProducerNode]] = {}
        self._next_host = 1
        self._next_channel = 1
        self._next_mgmt_host = 1
        self._next_entity = 1

    def _next_ip(self) -> str:
        ip = f"10.1.{self._next_host // 250}.{self._next_host % 250 + 1}"
        self._next_host += 1
        return ip

    def _next_mgmt_ip(self) -> str:
        """Management-segment addresses come from their own counter so
        attaching control-plane NICs never shifts the audio-LAN IP
        allocation order (which fault chains and differential tests key
        on)."""
        n = self._next_mgmt_host
        self._next_mgmt_host += 1
        return f"10.9.{n // 250}.{n % 250 + 1}"

    def _next_entity_id(self) -> int:
        eid = self._next_entity
        self._next_entity += 1
        return eid

    # -- construction -----------------------------------------------------------

    def add_producer(
        self,
        name: str = "",
        cpu_freq_hz: float = 500e6,
        vad_strategy: str = "kthread",
        housekeeping: bool = True,
        vlan: int = 1,
        **vad_kwargs,
    ) -> ProducerNode:
        """A machine running the VAD and (later) rebroadcasters."""
        name = name or f"producer{len(self.producers)}"
        machine = Machine(self.sim, name, cpu_freq_hz=cpu_freq_hz)
        machine.attach_network(self.lan, self._next_ip(), vlan=vlan)
        vad = VadPair(machine, strategy=vad_strategy, **vad_kwargs)
        if housekeeping:
            machine.start_housekeeping()
        node = ProducerNode(machine=machine, vad=vad)
        self.producers.append(node)
        return node

    def add_channel(
        self,
        name: str,
        params: AudioParams = CD_QUALITY,
        compress: str = "auto",
        quality: int = 10,
        **kwargs,
    ) -> ChannelConfig:
        channel_id = self._next_channel
        self._next_channel += 1
        channel = ChannelConfig(
            channel_id=channel_id,
            name=name,
            group_ip=f"239.192.0.{channel_id}",
            port=5000 + channel_id,
            params=params,
            compress=compress,
            quality=quality,
            **kwargs,
        )
        self.channels.append(channel)
        return channel

    def add_rebroadcaster(
        self,
        producer: ProducerNode,
        channel: ChannelConfig,
        master_path: str = "/dev/vadm",
        **kwargs,
    ) -> Rebroadcaster:
        kwargs.setdefault("telemetry", self.telemetry)
        kwargs.setdefault("encode_cache", self.encode_cache)
        rb = Rebroadcaster(
            producer.machine, channel, master_path=master_path, **kwargs
        )
        rb.start()
        self.rebroadcasters.append(rb)
        return rb

    def add_speaker(
        self,
        channel: Optional[ChannelConfig] = None,
        name: str = "",
        cpu_freq_hz: float = 233e6,
        block_seconds: float = 0.065,
        vlan: int = 1,
        housekeeping: bool = False,
        start: bool = True,
        dac_drift_ppm: float = 0.0,
        lan=None,
        **speaker_kwargs,
    ) -> SpeakerNode:
        """An Ethernet Speaker machine (EON 4000-class by default).

        ``lan`` attaches the speaker to another segment — a
        :class:`LeafLan` from :meth:`add_leaf_lan` or a raw
        :class:`EthernetSegment` — instead of the system LAN.

        ``channel=None`` boots the speaker *parked*: untuned, joined to
        nothing, its receive loop not started, waiting for the control
        plane to CONNECT it (see :meth:`advertise_speaker` /
        :meth:`connect_speaker`).  ``start`` only applies to a tuned
        speaker.
        """
        segment = self._segment_of(lan)
        name = name or f"es{len(self.speakers)}"
        machine = Machine(self.sim, name, cpu_freq_hz=cpu_freq_hz)
        machine.attach_network(segment, self._next_ip(), vlan=vlan)
        sink = SpeakerSink(name=f"{name}/speaker")
        hw = HardwareAudioDriver(machine, sink, drift_ppm=dac_drift_ppm)
        device = AudioDevice(machine, hw, block_seconds=block_seconds,
                             telemetry=self.telemetry)
        machine.register_device("/dev/audio", device)
        if housekeeping:
            machine.start_housekeeping()
        speaker_kwargs.setdefault("telemetry", self.telemetry)
        speaker_kwargs.setdefault("decode_cache", self.decode_cache)
        group_ip = channel.group_ip if channel is not None else None
        port = channel.port if channel is not None else 0
        speaker = EthernetSpeaker(
            machine, group_ip, port, name=name,
            **speaker_kwargs,
        )
        if start and channel is not None:
            speaker.start()
        node = SpeakerNode(
            machine=machine, speaker=speaker, sink=sink, device=device,
            channel=channel,
        )
        self.speakers.append(node)
        self.feeds.setdefault(segment, []).append(node)
        return node

    def _segment_of(self, lan) -> EthernetSegment:
        if lan is None:
            return self.lan
        return getattr(lan, "segment", lan)

    def add_speaker_cohort(
        self,
        channel: ChannelConfig,
        members: int,
        name: str = "",
        cpu_freq_hz: float = 233e6,
        block_seconds: float = 0.065,
        vlan: int = 1,
        lan=None,
        **speaker_kwargs,
    ):
        """``members`` identical unity-gain speakers on ``channel``.

        Costs one real exemplar speaker plus a small token per member and
        **one** delivery event per frame (see
        :class:`~repro.core.cohort.SpeakerCohort`); members that draw a
        divergent fate spill into full per-object speakers mid-stream.
        ``lan`` (any LAN, a relay-tree leaf included) and
        ``speaker_kwargs`` are :meth:`add_speaker`'s, ``decode_cache`` and
        ``telemetry`` included.  The per-object fleet a cohort must match
        bit for bit lives in ``tests/oracles/fleet.py``.
        """
        name = name or f"cohort{len(self.cohorts)}"
        segment = self._segment_of(lan)
        speaker_kwargs.setdefault("decode_cache", self.decode_cache)
        cohort = SpeakerCohort(
            self.sim, segment, members, channel.group_ip, channel.port,
            ip=self._next_ip(), vlan=vlan, cpu_freq_hz=cpu_freq_hz,
            block_seconds=block_seconds, speaker_kwargs=speaker_kwargs,
            name=name, telemetry=self.telemetry,
        )
        cohort.channel = channel
        self.cohorts.append(cohort)
        self.feeds.setdefault(segment, []).append(cohort)
        return cohort

    def inject_faults(self, link=None, name: str = "", **fault_kwargs
                      ) -> FaultInjector:
        """Attach a :class:`~repro.net.faults.FaultInjector` to a link
        (the system LAN by default) and register it for reporting.

        Keyword arguments are the injector's knobs — ``loss_rate``,
        ``burst_length``, ``duplicate_rate``, ``reorder_rate``,
        ``reorder_window``, ``corrupt_rate``, ``jitter``, ``seed`` —
        all seeded and itemised in :meth:`pipeline_report`.
        """
        fault_kwargs.setdefault("telemetry", self.telemetry)
        injector = FaultInjector(
            self.sim,
            name=name or f"faults{len(self.fault_injectors)}",
            **fault_kwargs,
        )
        injector.attach(link if link is not None else self.lan)
        self.fault_injectors.append(injector)
        return injector

    def remove_faults(self, injector: Optional[FaultInjector] = None) -> int:
        """Detach injector(s), flushing any packets still held back for
        reordering so nothing stays parked in flight.  Returns the number
        of flushed datagrams."""
        injectors = [injector] if injector is not None else list(self.fault_injectors)
        return sum(inj.detach() for inj in injectors)

    # -- the WAN relay tree ------------------------------------------------------

    def add_relay(
        self,
        parent,
        name: str = "",
        fallback: bool = False,
        fallback_timeout: float = 1.5,
        check_interval: float = 0.25,
        control_interval: float = 1.0,
        recovery: str = "none",
        fec_k: int = 4,
        fec_r: int = 1,
        fec_interleave: int = 1,
        bandwidth_bps: float = 20e6,
        latency: float = 0.040,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        wan_seed: Optional[int] = None,
        wan_faults: Optional[dict] = None,
    ) -> RelayNode:
        """A WAN relay fed by ``parent`` over a fresh uplink hop.

        ``parent`` is any frame source with ``add_downlink(hop)``: the
        origin :class:`Rebroadcaster` (the packets are teed off its send
        path, tandem-free) or another :class:`~repro.net.wan.RelayNode`
        one tier up.  The hop's WAN profile (``bandwidth_bps``/
        ``latency``/``jitter``/``loss_rate``) is per-hop; ``recovery``
        picks the hop's loss-recovery ladder (``"none"``/``"nack"``/
        ``"fec"``/``"fec+nack"``) with the ``fec_*`` knobs sizing the
        parity groups, ``fallback=True`` arms the local filler source,
        and ``wan_faults=dict(...)`` attaches a dedicated
        seeded :class:`~repro.net.faults.FaultInjector` to the uplink
        (GE bursty loss, duplication, corruption, bounded reorder — the
        knobs of :meth:`inject_faults`), itemised per hop in
        :meth:`pipeline_report`.
        """
        # imported here, not at module top: repro.net.wan reaches back
        # into repro.core during the circular package bootstrap
        from repro.net.wan import RelayNode, WanHop, WanLink

        name = name or f"relay{len(self.relays)}"
        relay = RelayNode(
            self.sim, name=name, fallback=fallback,
            fallback_timeout=fallback_timeout,
            check_interval=check_interval,
            control_interval=control_interval,
            telemetry=self.telemetry,
        )
        link = WanLink(
            self.sim, bandwidth_bps=bandwidth_bps, latency=latency,
            jitter=jitter, loss_rate=loss_rate,
            seed=(wan_seed if wan_seed is not None
                  else self._seed + 101 + len(self.wan_hops)),
            name=f"wan:{name}", telemetry=self.telemetry,
        )
        if wan_faults:
            kwargs = dict(wan_faults)
            kwargs.setdefault(
                "seed", self._seed + 301 + len(self.wan_fault_injectors)
            )
            kwargs.setdefault("telemetry", self.telemetry)
            injector = FaultInjector(
                self.sim, name=f"wanfaults:{name}", **kwargs
            )
            injector.attach(link)
            # kept apart from the LAN injectors: their budgets scale by
            # the whole speaker fleet, a WAN hop's by its subtree
            self.wan_fault_injectors.append(injector)
        hop = WanHop(
            link, relay.ingest, recovery=recovery,
            fec_k=fec_k, fec_r=fec_r, fec_interleave=fec_interleave,
            name=f"hop:{name}",
        )
        relay.uplink = hop
        parent.add_downlink(hop)
        self.feeds.setdefault(parent, []).append(hop)
        self.feeds[hop] = [relay]
        self.feeds[relay] = []
        self.relays.append(relay)
        self.wan_hops.append(hop)
        return relay

    def add_leaf_lan(
        self,
        relay: RelayNode,
        channel: ChannelConfig,
        name: str = "",
        bandwidth_bps: float = 100e6,
        latency: float = 50e-6,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        seed: Optional[int] = None,
        cpu_freq_hz: float = 500e6,
    ) -> LeafLan:
        """A LAN segment under ``relay``: the relay re-multicasts
        ``channel`` onto it through a gateway host, and speakers and
        cohorts attach with ``lan=leaf``.  The leaf segment runs
        the normal LAN protocol — WAN pathologies terminate at the
        relay, exactly as §6 terminates them at the rebroadcaster.
        """
        name = name or f"leaf{len(self.lans) - 1}"
        segment = EthernetSegment(
            self.sim, bandwidth_bps=bandwidth_bps, latency=latency,
            jitter=jitter, loss_rate=loss_rate,
            seed=(seed if seed is not None
                  else self._seed + 501 + len(self.lans)),
            name=name,
        )
        machine = Machine(self.sim, f"{name}-gw", cpu_freq_hz=cpu_freq_hz)
        machine.attach_network(segment, self._next_ip(), vlan=1)
        sock = machine.net.socket()
        dst = (channel.group_ip, channel.port)

        def egress(wire, _sock=sock, _dst=dst):
            _sock.sendto(bytes(wire), _dst)

        relay.attach_lan(channel.channel_id, egress)
        self.lans.append(segment)
        self.feeds[relay].append(segment)
        self.feeds[segment] = []
        return LeafLan(segment=segment, machine=machine, name=name)

    def weight(self, node) -> int:
        """Receivers at or below ``node`` in the frame graph: a speaker
        node weighs 1 and a cohort its ``members``, so a relay weighs the
        fan-out every frame denied (or minted) at its uplink would have
        reached."""
        below = self.feeds.get(node)
        if below is None:
            return node.members
        return sum(self.weight(n) for n in below)

    # -- self-healing: standby, supervision, node faults -------------------------

    def add_standby(
        self,
        producer: ProducerNode,
        channel: ChannelConfig,
        name: str = "",
        takeover_timeout: float = 1.5,
        check_interval: float = 0.25,
        cpu_freq_hz: float = 500e6,
        **rb_kwargs,
    ) -> WarmStandby:
        """A warm-standby producer for ``channel``.

        Builds a second producer node whose VAD mirrors every source feed
        later played into ``producer`` (call this *before* ``play_*``),
        runs a suspended :class:`Rebroadcaster` on it, and starts the
        :class:`~repro.core.failover.WarmStandby` watchdog that takes
        over — with a bumped epoch — when the primary's control cadence
        goes silent.  Registered in ``self.rebroadcasters`` so its
        transmissions join the channel's conservation ledger.
        """
        name = name or f"standby{len(self.standbys)}"
        node = self.add_producer(name=name, cpu_freq_hz=cpu_freq_hz)
        self._mirrors.setdefault(id(producer), []).append(node)
        rb_kwargs.setdefault("telemetry", self.telemetry)
        rb_kwargs.setdefault("encode_cache", self.encode_cache)
        rb = Rebroadcaster(node.machine, channel, **rb_kwargs)
        self.rebroadcasters.append(rb)
        standby = WarmStandby(
            rb,
            takeover_timeout=takeover_timeout,
            check_interval=check_interval,
            name=name,
            telemetry=self.telemetry,
        )
        standby.node = node
        standby.start()
        self.standbys.append(standby)
        return standby

    def add_supervisor(
        self,
        heartbeat_interval: float = 0.5,
        miss_threshold: int = 3,
        restart_delay: Optional[float] = 0.5,
        name: str = "",
    ) -> Supervisor:
        """A started :class:`~repro.mgmt.supervisor.Supervisor` on this
        system's clock; register nodes with :meth:`supervise` (or
        ``supervisor.watch``)."""
        supervisor = Supervisor(
            self.sim,
            heartbeat_interval=heartbeat_interval,
            miss_threshold=miss_threshold,
            restart_delay=restart_delay,
            name=name or f"supervisor{len(self.supervisors)}",
            telemetry=self.telemetry,
        )
        supervisor.start()
        self.supervisors.append(supervisor)
        return supervisor

    def supervise(self, supervisor: Supervisor, node, name: str = ""):
        """Heartbeat ``node`` (a :class:`SpeakerNode`, speaker,
        :class:`Rebroadcaster`, :class:`WarmStandby` or relay: anything
        with a ``name``, ``healthy()`` and ``restart()``) and restart it
        when it goes silent."""
        return supervisor.watch(
            name or node.name, self._host_of(node), node.healthy,
            restart=node.restart,
        )

    def _host_of(self, node) -> Machine:
        """The machine ``node``'s management agents run on.  A relay has
        no host of its own (it lives behind WAN hops), so it gets one
        small management proxy box, built on first use and shared by its
        advertiser and its heartbeat agent."""
        machine = getattr(node, "machine", None) or getattr(
            node, "mgmt_box", None
        )
        if machine is None:
            machine = node.mgmt_box = Machine(
                self.sim, f"{node.name}-mgmt", cpu_freq_hz=500e6
            )
        return machine

    # -- the dynamic control plane (ATDECC-style) --------------------------------

    def channel_by_id(self, channel_id: int) -> Optional[ChannelConfig]:
        for channel in self.channels:
            if channel.channel_id == channel_id:
                return channel
        return None

    def enable_management(
        self,
        bandwidth_bps: float = 100e6,
        latency: float = 50e-6,
    ) -> EthernetSegment:
        """Create the out-of-band management segment (idempotent).

        Discovery, enumeration, and connection management run here on
        second NICs with their own address space, so control-plane churn
        can never contend with the audio LAN for wire time, perturb its
        fault RNG draws, or leak into its conservation ledger (the
        segment is deliberately kept out of ``self.lans``).
        """
        if self.mgmt_lan is None:
            self.mgmt_lan = EthernetSegment(
                self.sim,
                bandwidth_bps=bandwidth_bps,
                latency=latency,
                seed=self._seed + 9001,
            )
        return self.mgmt_lan

    def _attach_mgmt(self, machine: Machine) -> None:
        if machine.mgmt_net is None:
            machine.attach_mgmt_network(
                self.enable_management(), self._next_mgmt_ip()
            )

    def add_controller(
        self,
        name: str = "",
        cpu_freq_hz: float = 500e6,
        supervisor: Optional[Supervisor] = None,
        **controller_kwargs,
    ) -> FleetController:
        """A started :class:`~repro.mgmt.controller.FleetController` on
        its own management-only machine.  Binding a ``supervisor`` routes
        lease expiries into its guarded restart path."""
        name = name or f"controller{len(self.controllers)}"
        machine = Machine(self.sim, name, cpu_freq_hz=cpu_freq_hz)
        self._attach_mgmt(machine)
        controller_kwargs.setdefault("telemetry", self.telemetry)
        controller_kwargs.setdefault("seed", self._seed)
        controller = FleetController(machine, name=name, **controller_kwargs)
        if supervisor is not None:
            controller.bind_supervisor(supervisor)
        controller.start()
        self.controllers.append(controller)
        return controller

    def advertise_speaker(
        self,
        node: SpeakerNode,
        valid_time: float = DEFAULT_VALID_TIME,
        interval: Optional[float] = None,
    ) -> EntityAdvertiser:
        """Put a speaker on the control plane: a management NIC, an ADP
        advertiser (boot/restart/crash transitions bump the serial), and
        a :class:`ManagementAgent` answering AECP/ACMP, which also
        first-starts a speaker that booted parked when the controller
        CONNECTs it."""
        self._attach_mgmt(node.machine)
        speaker = node.speaker
        entity_id = self._next_entity_id()
        node.entity_id = entity_id
        agent = ManagementAgent(speaker, entity_id=entity_id)
        agent.start()

        def on_connected(channel_id: int, node=node) -> None:
            node.channel = self.channel_by_id(channel_id)

        def on_disconnected(node=node) -> None:
            node.channel = None

        agent.on_connected = on_connected
        agent.on_disconnected = on_disconnected
        node.agent = agent
        return self._advertise(
            node, node.machine, entity_id, ENTITY_SPEAKER, speaker.name,
            speaker.healthy, valid_time, interval,
            channel_id_fn=lambda: (
                node.channel.channel_id if node.channel is not None else 0
            ),
            mgmt_port=MGMT_PORT,
        )

    def advertise_rebroadcaster(
        self,
        rb: Rebroadcaster,
        valid_time: float = DEFAULT_VALID_TIME,
        interval: Optional[float] = None,
        entity_kind: int = ENTITY_REBROADCASTER,
        name: str = "",
    ) -> EntityAdvertiser:
        """Advertise a talker.  Restart/failover epoch bumps advance the
        serial so registries see the state change immediately."""
        return self._advertise(
            rb, rb.machine, self._next_entity_id(), entity_kind,
            name or rb.name, rb.healthy, valid_time, interval,
            channel_id_fn=lambda: rb.channel.channel_id,
            epoch_fn=lambda: rb.epoch,
        )

    def advertise_standby(
        self,
        standby: WarmStandby,
        valid_time: float = DEFAULT_VALID_TIME,
        interval: Optional[float] = None,
    ) -> EntityAdvertiser:
        """Advertise a warm standby; a takeover bumps its rebroadcaster
        epoch, which the advertiser turns into a serial bump."""
        return self.advertise_rebroadcaster(
            standby.rb,
            valid_time=valid_time,
            interval=interval,
            entity_kind=ENTITY_STANDBY,
            name=standby.name,
        )

    def advertise_relay(
        self,
        relay,
        valid_time: float = DEFAULT_VALID_TIME,
        interval: Optional[float] = None,
    ) -> EntityAdvertiser:
        """Advertise a WAN relay.  The advert runs on the relay's
        management proxy box (see :meth:`_host_of`), whose probe asks the
        relay's ``healthy()``."""
        return self._advertise(
            relay, self._host_of(relay), self._next_entity_id(), ENTITY_RELAY,
            relay.name, relay.healthy, valid_time, interval,
        )

    def _advertise(
        self, subject, machine, entity_id, entity_kind, name, probe,
        valid_time, interval, **state_fns,
    ) -> EntityAdvertiser:
        """Start an advertiser for ``subject`` on ``machine``'s management
        NIC (attached here if it is not yet) and record it on both."""
        self._attach_mgmt(machine)
        advertiser = EntityAdvertiser(
            machine,
            entity_id,
            entity_kind=entity_kind,
            name=name,
            probe=probe,
            valid_time=valid_time,
            interval=interval,
            telemetry=self.telemetry,
            **state_fns,
        )
        advertiser.start()
        subject.advertiser = advertiser
        self.advertisers.append(advertiser)
        return advertiser

    def connect_speaker(
        self,
        controller: FleetController,
        node: SpeakerNode,
        channel: ChannelConfig,
    ) -> Process:
        """Tune ``node`` to ``channel`` through an ACMP CONNECT_RX
        transaction (the dynamic-control-plane replacement for wiring
        the channel at :meth:`add_speaker` time).  Returns the
        transaction process; its result is ``True`` on success.  The
        node's ``channel`` field updates when the command actually lands
        at its management agent, not when the transaction is issued."""
        if node.entity_id is None:
            raise ValueError(
                f"{node.speaker.name} is not advertised; call "
                "advertise_speaker() first"
            )
        return controller.connect(
            node.entity_id, channel.group_ip, channel.port,
            channel.channel_id,
        )

    def disconnect_speaker(
        self, controller: FleetController, node: SpeakerNode
    ) -> Process:
        """Park ``node`` through an ACMP DISCONNECT_RX transaction."""
        if node.entity_id is None:
            raise ValueError(
                f"{node.speaker.name} is not advertised; call "
                "advertise_speaker() first"
            )
        return controller.disconnect(node.entity_id)

    def schedule_fault(
        self,
        target,
        after: float,
        kind: str = "crash",
        restart_after: Optional[float] = None,
        seed: Optional[int] = None,
        jitter: float = 0.0,
    ) -> float:
        """Schedule a node fault ``after`` seconds from now.

        ``target`` is any node: a :class:`SpeakerNode` (or bare speaker),
        a :class:`~repro.core.cohort.CohortMember`, a
        :class:`Rebroadcaster`, a :class:`WarmStandby`, or a WAN
        :class:`~repro.net.wan.RelayNode`.  ``kind`` picks the verb the
        node answers: ``"crash"`` (abrupt process death) or ``"hang"``
        (wedged: stops consuming its socket and servicing timers without
        exiting).  With ``restart_after`` the node's own ``restart()``
        (a cold reboot for speakers, an epoch bump for producers) fires
        that many seconds after the fault.  ``jitter`` adds a seeded
        uniform offset to both times, so chaos scenarios stay
        deterministic per seed.  Returns the actual fault delay.
        """
        if kind not in ("crash", "hang"):
            raise ValueError(f"unknown fault kind {kind!r}")
        fault = target.crash if kind == "crash" else target.hang
        rng = random.Random(seed)
        delay = after + (rng.uniform(0.0, jitter) if jitter > 0 else 0.0)
        self.sim.schedule(delay, fault)
        if restart_after is not None:
            recover_delay = delay + restart_after + (
                rng.uniform(0.0, jitter) if jitter > 0 else 0.0
            )
            self.sim.schedule(recover_delay, target.restart)
        return delay

    # -- sources ------------------------------------------------------------------

    def play_pcm(
        self,
        producer: ProducerNode,
        samples: np.ndarray,
        params: AudioParams,
        chunk_seconds: float = 0.5,
        source_paced: bool = False,
        slave_path: str = "/dev/vads",
        start_after: float = 0.0,
    ) -> Process:
        """Run an application that writes ``samples`` to the producer's VAD.

        ``source_paced=False`` models file playback (data available at
        I/O speed); ``True`` models a live source that produces audio in
        real time (an internet radio client).
        """
        data = encode_samples(samples, params)
        return self.play_bytes(
            producer, data, params, chunk_seconds, source_paced,
            slave_path, start_after,
        )

    def play_bytes(
        self,
        producer: ProducerNode,
        data: bytes,
        params: AudioParams,
        chunk_seconds: float = 0.5,
        source_paced: bool = False,
        slave_path: str = "/dev/vads",
        start_after: float = 0.0,
    ) -> Process:
        """Like :meth:`play_pcm` for pre-encoded (or synthetic) PCM bytes.

        The same feed is mirrored into the VAD of every warm standby
        registered for this producer (:meth:`add_standby`), so a standby
        that takes over is already paced to the live stream position.
        """
        chunk = params.bytes_for(chunk_seconds)

        def app(machine):
            if start_after > 0:
                yield Sleep(start_after)
            fd = yield from machine.sys_open(slave_path)
            yield from machine.sys_ioctl(fd, AUDIO_SETINFO, params)
            for pos in range(0, len(data), chunk):
                piece = data[pos : pos + chunk]
                yield from machine.sys_write(fd, piece)
                if source_paced:
                    yield Sleep(params.duration_of(len(piece)))
            yield from machine.sys_close(fd)

        for mirror in self._mirrors.get(id(producer), ()):
            mirror.machine.spawn(
                app(mirror.machine),
                name=f"{mirror.machine.name}/audio-app",
            )
        machine = producer.machine
        return machine.spawn(app(machine), name=f"{machine.name}/audio-app")

    def play_synthetic(
        self,
        producer: ProducerNode,
        duration: float,
        params: AudioParams = CD_QUALITY,
        **kwargs,
    ) -> Process:
        """Stream ``duration`` seconds of filler PCM (perf scenarios)."""
        return self.play_bytes(
            producer, bytes(params.bytes_for(duration)), params, **kwargs
        )

    # -- running & measuring --------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def pipeline_report(self) -> PipelineReport:
        """The end-to-end telemetry view of this run.

        Latency/jitter percentiles come from the telemetry histograms
        (empty when telemetry is disabled); the per-channel accounting,
        the per-kind stats rows and the conservation check work in
        either mode, from component stats.  ``in_flight`` counts
        datagrams still queued in speaker sockets — at quiescence it is
        zero and conservation reduces to ``sent == received + dropped``.
        """
        tel = self.telemetry
        receivers = self.speakers + self.cohorts
        channels = []
        for channel in self.channels:
            rbs = [rb for rb in self.rebroadcasters
                   if rb.channel is channel]
            tuned = [r for r in receivers if r.channel is channel]
            if not rbs and not tuned:
                continue

            def _members(field: str) -> int:
                return sum(r.stat_sum(field) for r in tuned)

            raw = sum(rb.stats.raw_bytes for rb in rbs)
            sent_bytes = sum(rb.stats.sent_payload_bytes for rb in rbs)
            suspended = sum(rb.stats.suspended_blocks for rb in rbs)
            if raw:
                ratio = sent_bytes / raw
            else:
                ratio = 0.0 if suspended else 1.0
            channels.append(ChannelReport(
                name=channel.name,
                channel_id=channel.channel_id,
                speakers=sum(r.members for r in tuned),
                data_sent=sum(rb.stats.data_sent for rb in rbs),
                control_sent=sum(rb.stats.control_sent for rb in rbs),
                send_failures=sum(rb.stats.send_failures for rb in rbs),
                data_received=_members("data_rx"),
                played=_members("played"),
                late_dropped=_members("late_dropped"),
                waiting_dropped=_members("waiting_dropped"),
                dup_dropped=_members("dup_dropped"),
                reorder_dropped=_members("reorder_dropped"),
                decode_failed=_members("decode_failed"),
                epoch_dropped=_members("epoch_dropped"),
                socket_drops=_members("socket_data_drops"),
                in_flight=sum(r.pending_data() for r in tuned),
                suspended_blocks=suspended,
                compression_ratio=ratio,
            ))

        def _snap(name: str) -> dict:
            hist = tel.histograms.get(name)
            if hist is None or hist.count == 0:
                return {}
            return hist.snapshot()

        all_gaps = [
            g for n in self.speakers for g in n.stats.rejoin_gaps
        ]
        for c in self.cohorts:
            for i in range(c.members):
                all_gaps.extend(c.member_stats(i).rejoin_gaps)
        # WAN relay tree: per-hop counters plus the delivery budgets the
        # conservation bound admits, weighted by the receivers below each
        # relay.  Each relay has exactly one uplink hop, so denials at the
        # hop (wire loss, frames still in flight or parked in the
        # resequencer) and at the relay itself (arrivals while
        # crashed/hung) scale by the same weight; retransmit duplicates
        # and fallback filler are deliveries the origin never sent,
        # scaled the same way.
        wan_lost_deliveries = 0
        wan_extra_deliveries = 0
        for relay in self.relays:
            hop = relay.uplink
            link = hop.link.stats
            subtree = self.weight(relay)
            faults = hop.link.faults
            # an injector's kills/corruptions deny at most one subtree of
            # deliveries each (corrupt frames may die at the hop parser,
            # at the relay, or decode to garbage at the leaf — all ways
            # the delivery never counts); duplicates and FEC repairs are
            # deliveries the origin never sent.  Injector-killed and
            # still-parked copies are already inside link.in_flight's
            # balance, so the explicit terms below are upper-bound slack,
            # never double-subtraction.
            injected_lost = faults.stats.lost if faults else 0
            injected_corrupt = faults.stats.corrupted if faults else 0
            injected_dup = faults.stats.duplicated if faults else 0
            wan_lost_deliveries += subtree * (
                link.lost + hop.link.in_flight + hop.pending
                + hop.stats.stale_dropped + hop.stats.corrupt_dropped
                + injected_lost + injected_corrupt
                + relay.stats.dropped_down
            )
            wan_extra_deliveries += subtree * (
                link.retransmits + injected_dup + hop.fec.repaired
                + relay.stats.filler_data
            )

        hops = self.wan_hops
        sources = {
            "segment": [l.stats for l in self.lans],
            "lan_faults": [f.stats for f in self.fault_injectors],
            "wan_link": [h.link.stats for h in hops],
            "wan_hop": [h.stats for h in hops],
            "wan_faults": [f.stats for f in self.wan_fault_injectors],
            "fec": [h.fec for h in hops],
            "relay": [r.stats for r in self.relays],
            "failover": [s.stats for s in self.standbys],
            "supervisor": [s.stats for s in self.supervisors],
            "controller": [c.stats for c in self.controllers],
            "advertiser": [a.stats for a in self.advertisers],
            "decode_cache": [self.decode_cache.stats],
            "encode_cache": [self.encode_cache.stats],
        }
        # one row per component kind the system has: its stats dataclass,
        # summed; a cohort sums its members' SpeakerStats itself
        stats = {"speaker": sum_stats(SpeakerStats, receivers,
                                      lambda r, name: r.stat_sum(name))}
        stats.update((kind, sum_stats(type(objs[0]), objs))
                     for kind, objs in sources.items() if objs)
        return PipelineReport(
            duration=self.sim.now,
            latency=_snap("pipeline.e2e_latency"),
            arrival=_snap("pipeline.arrival_latency"),
            jitter=_snap("pipeline.jitter"),
            underruns=sum(r.underruns() for r in receivers),
            silence_seconds=sum(r.silence_seconds() for r in receivers),
            channels=channels,
            stats=stats,
            injected_pending=sum(f.pending for f in self.fault_injectors),
            fanout_batch=_snap("net.fanout_batch"),
            encode_batch=_snap("origin.encode_batch"),
            takeover_latency=_snap("failover.takeover_latency"),
            rejoins=len(all_gaps),
            rejoin_gap=_snap("speaker.rejoin_gap"),
            max_rejoin_gap=max(all_gaps, default=0.0),
            cohort_members=sum(c.members for c in self.cohorts),
            cohort_spills=sum(c.spills for c in self.cohorts),
            cohort_events_saved=sum(c.events_saved for c in self.cohorts),
            wan_in_flight=sum(h.link.in_flight + h.pending for h in hops),
            wan_lost_deliveries=wan_lost_deliveries,
            wan_extra_deliveries=wan_extra_deliveries,
            trace_events=len(tel.tracer.events),
        )

    def chrome_trace(self) -> dict:
        """The run's Chrome ``trace_event`` JSON object (see
        ``chrome://tracing`` / Perfetto)."""
        return self.telemetry.tracer.to_chrome()

    def write_trace(self, path: str) -> None:
        self.telemetry.tracer.write(path)

    def skew_report(
        self, speakers: Optional[Sequence[SpeakerNode]] = None
    ) -> Dict[str, float]:
        """Playback skew across speakers (§3.2's central claim).

        For every stream position played by *all* speakers, the skew is
        the spread of the times the corresponding samples actually left
        each speaker's DAC.  Returns max/mean skew and the number of
        common positions compared.
        """
        nodes = list(speakers if speakers is not None else self.speakers)
        logs = []
        for node in nodes:
            emission = {}
            for play_at, offset in node.stats.write_offsets:
                t = node.sink.time_at_bytes(offset)
                if t is not None:
                    emission[play_at] = t
            logs.append(emission)
        if len(logs) < 2:
            return {"max_skew": 0.0, "mean_skew": 0.0, "positions": 0}
        common = set(logs[0])
        for log in logs[1:]:
            common &= set(log)
        if not common:
            return {"max_skew": 0.0, "mean_skew": 0.0, "positions": 0}
        skews = [
            max(log[p] for log in logs) - min(log[p] for log in logs)
            for p in common
        ]
        return {
            "max_skew": max(skews),
            "mean_skew": float(np.mean(skews)),
            "positions": len(common),
        }
