"""The Ethernet Speaker: a receive-only playback node (§2.3, §2.4, §3.2).

State machine per the paper: the speaker joins the channel's multicast
group and **waits for a control packet** (it cannot decode anything before
it knows the audio configuration); then for every data packet it computes a
local play deadline from the producer wall clock and the packet's play
timestamp, and

* **sleeps** if the data is early,
* **plays** if it is within the epsilon leeway,
* **throws the data away** if it is later than epsilon — "throwing away
  data up until the current wall time" (§3.2).

The speaker never transmits: the producer keeps no state about it, and any
number of speakers can tune in or out without anyone's cooperation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Deque, List, Optional, Set, Tuple

import numpy as np

from repro.audio.encodings import decode_samples, encode_samples
from repro.audio.params import AudioParams
from repro.codec.base import CodecID, get_codec
from repro.codec.cache import DecodeCache
from repro.codec.queue import QUEUE
from repro.codec.cost import DEFAULT_COSTS
from repro.core.protocol import (
    SEQ_MOD,
    TYPE_DATA,
    AnnouncePacket,
    ControlPacket,
    DataPacket,
    ProtocolError,
    epoch_newer,
    parse_packet,
    peek_type,
    seq_delta,
)
from repro.kernel.audio import AUDIO_SETINFO
from repro.metrics.telemetry import get_telemetry
from repro.sim.process import Process, ProcessKilled, Sleep


@lru_cache(maxsize=16)
def _synthetic_filler(nbytes: int) -> bytes:
    """Shared zero block for synthetic payloads: every speaker on a
    channel used to allocate its own ``bytes(pcm_bytes)`` per packet."""
    return bytes(nbytes)


@dataclass
class SpeakerStats:
    control_rx: int = 0
    data_rx: int = 0
    played: int = 0
    late_dropped: int = 0
    waiting_dropped: int = 0  # data before the first control packet
    seq_gaps: int = 0
    concealed: int = 0
    dup_dropped: int = 0      # exact re-delivery of a block already seen
    reorder_dropped: int = 0  # arrived behind a newer block (stale seq)
    decode_failed: int = 0    # undecodable payload (corruption in flight)
    resyncs: int = 0          # control-packet re-anchors (§3.2 large shift)
    epoch_resyncs: int = 0    # re-anchors forced by a producer epoch change
    epoch_dropped: int = 0    # data from a different producer incarnation
    stale_controls: int = 0   # controls from a dead (older-epoch) producer
    socket_data_drops: int = 0  # data copies lost at the socket (overflow
                                # while hung/slow, or queued when it died)
    garbage_rx: int = 0
    auth_rejected: int = 0
    first_play_time: Optional[float] = None
    #: wall-clock span from the last block committed before an outage
    #: (crash, hang, producer failover) to the first block committed after
    rejoin_gaps: List[float] = field(default_factory=list)
    #: (stream position, local time the block was committed to the device)
    play_log: List[Tuple[float, float]] = field(default_factory=list)
    #: (stream position, cumulative PCM bytes written before the block) —
    #: lets the sink map stream positions to actual DAC emission times
    write_offsets: List[Tuple[float, int]] = field(default_factory=list)


class EthernetSpeaker:
    """One speaker node.

    Parameters
    ----------
    epsilon:
        the §3.2 leeway: how late a block may be and still play.  Too
        small and "data will be unnecessarily thrown out and skipping in
        playback will be noticeable".
    playout_delay:
        fixed buffering depth between a block's nominal stream time and
        its local play deadline; absorbs network jitter and decode time.
    rx_buffer_packets:
        the speaker's input buffer (§3.2's "it needs to buffer the data").
    """

    #: a control packet whose schedule shifts by at most this much is
    #: jitter and is ignored
    RESYNC_THRESHOLD = 0.250
    #: shifts up to this size could be a single control packet delayed on
    #: the wire, so they must be confirmed by a second control before
    #: re-anchoring; larger shifts (pause, producer restart) cannot be
    #: network delay and re-anchor immediately
    RESYNC_CONFIRM_WINDOW = 1.0

    def __init__(
        self,
        machine,
        group_ip: Optional[str],
        port: int,
        epsilon: float = 0.020,
        playout_delay: float = 0.400,
        rx_buffer_packets: int = 64,
        audio_path: str = "/dev/audio",
        verifier=None,
        cost_model=None,
        room=None,
        conceal_losses: bool = False,
        name: str = "",
        telemetry=None,
        decode_cache: Optional[DecodeCache] = None,
    ):
        self.machine = machine
        self.group_ip = group_ip
        self.port = port
        self.epsilon = epsilon
        self.playout_delay = playout_delay
        self.rx_buffer_packets = rx_buffer_packets
        self.audio_path = audio_path
        self.verifier = verifier
        self.costs = cost_model or DEFAULT_COSTS
        self.room = room
        #: extension beyond the paper: bridge lost packets by repeating
        #: the previous block instead of letting the driver insert
        #: silence — the standard concealment for uncompressed audio
        self.conceal_losses = conceal_losses
        #: optional shared-decode cache (one per LAN): byte-identical
        #: multicast payloads are decoded once and the unity-gain PCM is
        #: shared across every speaker on the channel.  ``None`` decodes
        #: privately (the pre-fan-out-fast-path behaviour).
        self.decode_cache = decode_cache
        self._last_pcm: Optional[bytes] = None
        #: playback gain (§5.2's knob); 1.0 = unity
        self.gain = 1.0
        #: RMS level of the most recently played block, after gain
        self.last_output_rms = 0.0
        self.name = name or f"es-{machine.name}"
        self.stats = SpeakerStats()
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        tel = self.telemetry
        tel.register("speaker", self.name, self.stats)
        # hot-loop instruments are resolved once here: building the label
        # f-string per packet showed up in the fan-out profile
        self._g_rx_queue = tel.gauge(f"speaker.rx_queue[{self.name}]")
        self._last_arrival: Optional[float] = None
        self._last_block_seconds = 0.0
        self._proc: Optional[Process] = None
        self._params: Optional[AudioParams] = None
        self._decoder = None
        self._decoder_key = None
        # sync anchor: (local time, stream position) from a control packet
        self._anchor: Optional[Tuple[float, float]] = None
        #: a lone out-of-schedule control packet is held here instead of
        #: re-anchoring: one delayed/reordered control must not reset the
        #: stream, but two consecutive ones agreeing on a new schedule
        #: (producer restart, long pause) confirm a real shift
        self._resync_candidate: Optional[Tuple[float, float]] = None
        self._playing_started = False
        self._last_seq: Optional[int] = None
        #: recently accepted sequence numbers, to tell an exact duplicate
        #: from a reordered block that is merely behind the playout point
        self._recent_seqs: Set[int] = set()
        self._recent_order: Deque[int] = deque()
        self._bytes_written = 0
        #: PCM bytes written in *earlier* tuning sessions: keeps the
        #: stream-offset -> device-byte mapping absolute across retunes
        #: while _bytes_written itself is per-session
        self._write_base = 0
        self._sock = None
        #: the producer incarnation this speaker is anchored to; adopted
        #: from the first control packet, bumped on failover (epoch rules
        #: in docs/faults.md)
        self._epoch: Optional[int] = None
        #: local time of the last committed block before an outage began;
        #: armed by crash()/restart()/epoch re-anchor, cleared (and
        #: recorded into ``stats.rejoin_gaps``) by the next committed block
        self._gap_started: Optional[float] = None
        #: crash() keeps the socket bound so downtime arrivals stay in the
        #: conservation ledger (classified drops) instead of vanishing
        self._crashed = False

    @property
    def state(self) -> str:
        return "playing" if self._anchor is not None else "waiting"

    @property
    def started(self) -> bool:
        """False while the speaker sits parked, never started."""
        return self._proc is not None

    def start(self) -> Process:
        self._proc = self.machine.spawn(
            self._run(), name=f"{self.machine.name}/es"
        )
        return self._proc

    def start_resumed(self, sock, fd) -> Process:
        """Enter the receive loop mid-session on a pre-built socket/fd.

        Used when a cohort member spills out of the vectorized array into
        a per-object speaker: the tune-in work (socket bind, group join,
        sys_open) already happened — and was already paid for — in the
        member's shared past, so the clone resumes directly in
        :meth:`_serve` with the carried state.
        """
        self._sock = sock
        self._proc = self.machine.spawn(
            self._serve(sock, fd), name=f"{self.machine.name}/es"
        )
        return self._proc

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.kill()

    def retune(self, group_ip: str, port: int) -> None:
        """Switch channels (§5.3): leave the group, reset sync state.

        Everything per-stream is forgotten — sequence and concealment
        state, the decoder, the audio configuration, the first-block
        playout gate — so nothing from the old channel can leak into the
        new one.  ``_bytes_written`` restarts at zero for the new
        session; ``_write_base`` keeps the device-byte mapping absolute.
        """
        if self._sock is not None and self.group_ip is not None:
            self.machine.net.nic.leave_group(self.group_ip)
        self.group_ip = group_ip
        self.port = port
        self._anchor = None
        self._params = None
        self._playing_started = False
        self._decoder = None
        self._decoder_key = None
        self._epoch = None
        self._write_base += self._bytes_written
        self._bytes_written = 0
        self._reset_stream_state()
        if self._proc is not None:
            self._proc.kill()
            self.start()

    # -- node faults ----------------------------------------------------------

    def healthy(self) -> bool:
        """The probe contract: process alive and not frozen.  A speaker
        that booted parked counts as up: it waits for its first CONNECT."""
        if self._crashed:
            return False
        proc = self._proc
        return proc is None or (proc.alive and not proc.frozen)

    def crash(self) -> None:
        """Kill the speaker process the way a wedged node dies: abruptly.

        Unlike :meth:`stop`, the socket stays bound — the NIC keeps
        receiving, the bounded queue fills, and overflow is counted as
        classified drops — so every multicast copy addressed to this node
        during the outage remains in the conservation ledger.
        :meth:`restart` disposes of the wreck.
        """
        if self._proc is None or not self._proc.alive:
            return
        self._crashed = True
        self._begin_outage_gap()
        self._proc.kill()

    def hang(self, freeze_cpu: bool = True) -> None:
        """Wedge the node: the process stops consuming its socket and
        servicing timers without exiting.  With ``freeze_cpu`` the whole
        machine halts (heartbeat agents starve too)."""
        if self._proc is not None and self._proc.alive:
            self._proc.freeze()
        if freeze_cpu:
            self.machine.cpu.halt()

    def unhang(self) -> None:
        """Undo :meth:`hang`; the backlog is drained on resume."""
        self.machine.cpu.unhalt()
        if self._proc is not None:
            self._proc.thaw()

    def restart(self) -> Process:
        """Reboot from cold: all RAM state is lost, then the paper's
        wait-for-control → buffer → play path runs again from scratch.

        Works on a crashed, hung, or running speaker.  The playback gap
        (last block committed before the outage to first block after) is
        recorded in ``stats.rejoin_gaps``.
        """
        self._begin_outage_gap()
        self.machine.cpu.unhalt()
        if self._proc is not None and self._proc.alive:
            self._proc.kill()  # its finally closes the socket (counted)
        if self._sock is not None:
            # close now rather than relying on the kill's finally: a
            # process frozen before its first step (a cohort clone hung
            # at the spill instant) has no try block to unwind, and for a
            # crash wreck there is no process at all.  close() drains +
            # classifies what queued up and is idempotent, so the paths
            # that do reach the finally agree with this one.
            self._sock.close()
        self._sock = None
        self._crashed = False
        self._anchor = None
        self._params = None
        self._playing_started = False
        self._decoder = None
        self._decoder_key = None
        self._epoch = None
        self._write_base += self._bytes_written
        self._bytes_written = 0
        self._reset_stream_state()
        return self.start()

    def _reset_stream_state(self) -> None:
        """Forget per-stream sequencing and concealment context.

        Called on retune and on a control-packet re-anchor: after either,
        the next data packet opens a fresh sequence space (a restarted
        producer goes back to seq 1), so comparing against the old
        ``_last_seq`` would misclassify the whole new stream as stale,
        and the old ``_last_pcm`` would conceal with unrelated audio.
        """
        self._last_seq = None
        self._last_pcm = None
        self._resync_candidate = None
        self._recent_seqs.clear()
        self._recent_order.clear()
        self._last_arrival = None
        self._last_block_seconds = 0.0

    # -- the receive loop -----------------------------------------------------------

    def _open_socket(self):
        """Bind the receive socket and join the channel group.

        Split out of :meth:`_run` so a cohort exemplar can substitute an
        offer-tracking socket while keeping the tune-in sequence (and its
        cost model) byte-identical.
        """
        sock = self.machine.net.socket(
            self.port, rx_capacity=self.rx_buffer_packets
        )
        if self.group_ip is not None:
            # a parked speaker (booted undiscovered, awaiting an ACMP
            # CONNECT) binds but joins nothing until it is tuned
            sock.join_multicast(self.group_ip)
        sock.drop_hook = self._classify_drop
        self._sock = sock
        return sock

    def _run(self):
        sock = self._open_socket()
        fd = yield from self.machine.sys_open(self.audio_path)
        yield from self._serve(sock, fd)

    def _serve(self, sock, fd):
        try:
            while True:
                msg = yield sock.recv()
                self._note_packet_start(msg)
                yield from self._process_packet(fd, msg)
        except ProcessKilled:
            raise
        finally:
            if not self._crashed and self._sock is sock:
                sock.close()
            # a crashed node's socket stays bound: the NIC keeps receiving
            # and the classified drop counter keeps the ledger closed
            # until restart() disposes of the wreck.  The identity
            # check matters when a kill cannot land at its yield point (a
            # CPU slice in flight cannot be disarmed): by the time the
            # ProcessKilled arrives, restart() may already have
            # closed this socket and bound a successor on the same port —
            # closing here would silently unregister the live socket.

    def _process_packet(self, fd, msg):
        machine = self.machine
        wire = msg.payload
        if self.verifier is not None:
            yield machine.cpu.run(
                self.verifier.verify_cycles(len(wire)), domain="user"
            )
            wire = self.verifier.unwrap(wire)
            if wire is None:
                self.stats.auth_rejected += 1
                return
        try:
            packet = parse_packet(wire)
        except ProtocolError:
            self.stats.garbage_rx += 1
            return
        if isinstance(packet, ControlPacket):
            yield from self._handle_control(fd, packet)
        elif isinstance(packet, DataPacket):
            yield from self._handle_data(fd, packet)

    # cohort hook: a SpeakerCohort exemplar overrides this to run its
    # spill checks before a packet is consumed.  A no-op on a plain node.

    def _note_packet_start(self, msg) -> None:
        pass

    def _classify_drop(self, payload) -> None:
        """Socket drop observer: count the *data* copies this node lost
        (overflow while hung or slow, queued datagrams when it died) so
        the conservation ledger closes without crediting control traffic.
        """
        if peek_type(payload) == TYPE_DATA:
            self.stats.socket_data_drops += 1

    @property
    def pending_data(self) -> int:
        """Data packets sitting unconsumed in the receive queue."""
        sock = self._sock
        if sock is None:
            return 0
        return sum(
            1 for item in sock._rx._items
            if peek_type(item.payload) == TYPE_DATA
        )

    def _begin_outage_gap(self) -> None:
        if self._gap_started is None:
            if self.stats.play_log:
                self._gap_started = self.stats.play_log[-1][1]
            else:
                self._gap_started = self.machine.sim.now

    def _handle_control(self, fd, packet: ControlPacket):
        self.stats.control_rx += 1
        if (
            self._epoch is not None
            and packet.epoch != self._epoch
            and not epoch_newer(packet.epoch, self._epoch)
        ):
            # a straggler from a producer incarnation we already left
            # behind: obeying its schedule (or its params) would tear the
            # speaker away from the live producer
            self.stats.stale_controls += 1
            return
        if packet.params != self._params:
            self._params = packet.params
            yield from self.machine.sys_ioctl(fd, AUDIO_SETINFO, packet.params)
        now = self.machine.sim.now
        if self._anchor is None:
            self._epoch = packet.epoch
            self._anchor = (now, packet.stream_pos)
            self._playing_started = False
        elif packet.epoch != self._epoch:
            # producer takeover or forced restart: a new incarnation has a
            # new schedule and a new sequence space by definition, so the
            # drift debounce does not apply — re-anchor immediately and
            # exactly once (the epoch comparison is what makes a second
            # control from the same incarnation a no-op)
            self._begin_outage_gap()
            self._epoch = packet.epoch
            self._anchor = (now, packet.stream_pos)
            self._playing_started = False
            self._reset_stream_state()
            self.stats.resyncs += 1
            self.stats.epoch_resyncs += 1
            self.telemetry.tracer.instant(
                "speaker.epoch_resync", track=self.name, epoch=packet.epoch,
            )
        else:
            # §3.2: the wall clock in each control packet tells the speaker
            # whether it is playing too quickly or slowly.  Small deviations
            # are jitter and are ignored; a large shift means the stream
            # paused, restarted, or we fell badly behind — re-anchor.
            predicted = self._anchor[0] + (packet.stream_pos - self._anchor[1])
            shift = abs(now - predicted)
            confirmed = self._resync_candidate is not None and abs(
                now
                - (self._resync_candidate[0]
                   + (packet.stream_pos - self._resync_candidate[1]))
            ) <= self.RESYNC_THRESHOLD
            if shift <= self.RESYNC_THRESHOLD:
                self._resync_candidate = None
            elif shift > self.RESYNC_CONFIRM_WINDOW or confirmed:
                # re-anchor: either the shift is too large to be a packet
                # delayed on the wire (producer restart, long pause), or
                # two consecutive controls agreed on the new schedule
                self._anchor = (now, packet.stream_pos)
                self._playing_started = False
                # a re-anchor means a different stream schedule: sequence
                # and concealment state from the old one is meaningless now
                self._reset_stream_state()
                self.stats.resyncs += 1
                self.telemetry.tracer.instant(
                    "speaker.resync", track=self.name, shift=shift,
                )
            else:
                # moderately out of schedule, unconfirmed: a control packet
                # that was merely delayed or reordered on the wire looks
                # exactly like this, and re-anchoring on it would reset the
                # stream (and unleash held-back stale data).  Park it; the
                # next control either clears it or confirms the shift.
                self._resync_candidate = (now, packet.stream_pos)

    def _handle_data(self, fd, packet: DataPacket):
        machine = self.machine
        tel = self.telemetry
        arrived = machine.sim.now
        self.stats.data_rx += 1
        flight = tel.tracer.flow_end(
            (packet.channel_id, packet.seq), "packet.flight", track=self.name
        )
        if flight is not None:
            tel.observe("pipeline.arrival_latency", flight)
        if self._last_arrival is not None and self._last_block_seconds > 0:
            # inter-packet jitter: deviation of the arrival spacing from
            # the nominal block duration the producer paced to
            tel.observe(
                "pipeline.jitter",
                abs((arrived - self._last_arrival) - self._last_block_seconds),
            )
        self._last_arrival = arrived
        if self._params is not None:
            self._last_block_seconds = self._params.duration_of(
                packet.pcm_bytes or len(packet.payload)
            )
        if self._anchor is None or self._params is None:
            # §2.3: "The Ethernet Speaker has to wait till it receives a
            # control packet before it can start playing"
            self.stats.waiting_dropped += 1
            return
        if packet.epoch != self._epoch:
            # wrong producer incarnation: either a straggler from a dead
            # one (its seq space would poison ours), or an early block
            # from a new one whose control we have not seen yet — the
            # paper's wait-for-control rule applies per epoch
            self.stats.epoch_dropped += 1
            tel.tracer.instant("speaker.epoch_drop", track=self.name,
                               seq=packet.seq, epoch=packet.epoch)
            return
        # -- seq-aware playout: play monotonically, drop what the wire
        #    duplicated or delivered behind the playout point.  seq is a
        #    wrapping u32, so ordering is serial-number arithmetic: a
        #    delta in the upper half-space means "behind us" ------------------
        gap = 0
        if self._last_seq is not None:
            delta = seq_delta(packet.seq, self._last_seq)
            if delta == 0 or delta >= SEQ_MOD // 2:
                if packet.seq in self._recent_seqs:
                    # exact re-delivery of a block we already processed
                    self.stats.dup_dropped += 1
                    tel.tracer.instant("speaker.dup_drop", track=self.name,
                                       seq=packet.seq)
                else:
                    # reordered arrival: playout has moved past it (the
                    # gap it left was already counted, and concealed if
                    # concealment is on)
                    self.stats.reorder_dropped += 1
                    tel.tracer.instant("speaker.reorder_drop",
                                       track=self.name, seq=packet.seq)
                return
            if delta > 1:
                gap = delta - 1
                self.stats.seq_gaps += gap
                tel.tracer.instant("speaker.gap", track=self.name,
                                   missing=gap)
        self._last_seq = packet.seq
        self._remember_seq(packet.seq)

        decode_span = tel.tracer.begin("speaker.decode", track=self.name)
        try:
            pcm = yield from self._decode(packet)
        except ProcessKilled:
            raise
        except Exception:
            # §3.2's "throw the data away", extended to data that cannot
            # be decoded: a payload corrupted in flight must not take the
            # whole speaker down
            self.stats.decode_failed += 1
            tel.tracer.instant("speaker.decode_failed", track=self.name,
                               seq=packet.seq)
            return
        finally:
            tel.tracer.end(decode_span)

        anchor_time, anchor_pos = self._anchor
        deadline = anchor_time + (packet.play_at - anchor_pos) + self.playout_delay
        now = machine.sim.now
        if not self._playing_started:
            # §3.2: playing too quickly -> sleep until it is time to play.
            # Only the first block is gated on its deadline; while we
            # sleep, the following packets queue in the receive buffer,
            # and the burst of writes that follows fills the audio ring.
            # From then on the device's own DMA pacing holds the schedule.
            if now < deadline:
                yield Sleep(deadline - now)
                now = machine.sim.now
            self._playing_started = True
        if now - deadline > self.epsilon:
            # §3.2: too late -> throw the data away.  The block still
            # becomes the concealment context: it is the newest audio we
            # have, even if it missed its slot.
            self.stats.late_dropped += 1
            tel.tracer.instant("speaker.late_drop", track=self.name,
                               seq=packet.seq, late_by=now - deadline)
            self._last_pcm = pcm
            return
        if self.conceal_losses and gap and self._last_pcm is not None:
            # repeat the previous block across the hole (capped: a long
            # outage should fade out, not stutter forever).  This runs
            # only once the block itself has earned its playout slot — a
            # late-dropped block must not smear repeats at the wrong time.
            for _ in range(min(gap, 3)):
                self._bytes_written += len(self._last_pcm)
                yield from machine.sys_write(fd, self._last_pcm)
                self.stats.concealed += 1
        self._last_pcm = pcm
        if self._gap_started is not None:
            # first block committed after an outage (crash, hang, producer
            # failover): the wall-clock hole in this speaker's write
            # stream is the measured rejoin gap
            rejoin_gap = machine.sim.now - self._gap_started
            self._gap_started = None
            self.stats.rejoin_gaps.append(rejoin_gap)
            tel.observe("speaker.rejoin_gap", rejoin_gap)
            tel.tracer.instant("speaker.rejoin", track=self.name,
                               gap=rejoin_gap)
        self.stats.play_log.append((packet.play_at, machine.sim.now))
        self.stats.write_offsets.append(
            (packet.play_at, self._write_base + self._bytes_written)
        )
        if self.stats.first_play_time is None:
            self.stats.first_play_time = machine.sim.now
        self._bytes_written += len(pcm)
        yield from machine.sys_write(fd, pcm)
        self.stats.played += 1
        if flight is not None:
            # producer send -> committed to the audio ring: the paper's
            # end-to-end path, playout buffering included
            tel.observe("pipeline.e2e_latency",
                        flight + (machine.sim.now - arrived))
        self._g_rx_queue.set(self._sock.queued if self._sock else 0)

    #: how many accepted sequence numbers to keep for duplicate detection
    #: (far wider than any plausible wire reorder window; bounded so a
    #: long-running speaker's memory stays flat)
    RECENT_SEQ_WINDOW = 128

    def _remember_seq(self, seq: int) -> None:
        self._recent_seqs.add(seq)
        self._recent_order.append(seq)
        if len(self._recent_order) > self.RECENT_SEQ_WINDOW:
            self._recent_seqs.discard(self._recent_order.popleft())

    def _decode(self, packet: DataPacket):
        """Payload -> PCM bytes in the device's configured format.

        The simulated CPU is charged the full decode cost regardless of
        the shared-decode cache: a hit only skips redundant *host* work,
        so cached and uncached runs are bit-identical in virtual time.
        A payload the cache does not hold is handed to the codec queue
        while the charge runs, so it is decoded in one group with the
        other speakers' payloads (:mod:`repro.codec.queue`).
        """
        machine = self.machine
        params = self._params
        frames = params.frames_of(packet.pcm_bytes or len(packet.payload))
        cost = self.costs[packet.codec_id]
        cycles = cost.decode_cycles(frames)
        cache = self.decode_cache
        key = pending = None
        if (cache is not None and self.gain == 1.0 and self.room is None
                and not packet.synthetic and packet.codec_id != CodecID.RAW):
            key = cache.key_for(packet.payload, packet.codec_id, params)
            if key not in cache:
                pending = QUEUE.decode(
                    self._get_decoder(packet.codec_id), packet.payload, params
                )
        try:
            if cycles > 0:
                yield machine.cpu.run(cycles, domain="user")
            return self._decoded(packet, params, key)
        finally:
            if pending is not None:
                QUEUE.release(pending)

    def _decoded(self, packet: DataPacket, params: AudioParams, key):
        """The decode itself, once its CPU charge has run; ``key`` is
        the payload's decode-cache key, if the charge started with one."""
        if packet.synthetic:
            return _synthetic_filler(packet.pcm_bytes)
        if packet.codec_id == CodecID.RAW:
            if self.gain == 1.0 and self.room is None:
                return packet.payload
            samples = decode_samples(packet.payload, params)
        else:
            cache = self.decode_cache
            if cache is not None and self.gain == 1.0 and self.room is None:
                # the speaker-independent path: share the decoded block
                # with every other unity-gain speaker on the channel
                if key is None:
                    key = cache.key_for(packet.payload, packet.codec_id,
                                        params)
                entry = cache.get(key)
                if entry is None:
                    entry = self._get_decoder(packet.codec_id).decode_block(
                        packet.payload, params
                    )
                    cache.put(key, entry)
                if entry.rms is not None:
                    self.last_output_rms = entry.rms
                return entry.pcm
            decoder = self._get_decoder(packet.codec_id)
            samples = decoder.decode_block(packet.payload)
        if self.gain != 1.0:
            samples = np.clip(samples * self.gain, -1.0, 1.0)
        if len(samples):
            self.last_output_rms = float(
                np.sqrt(np.mean(np.square(samples)))
            )
            if self.room is not None:
                self.room.speaker_rms = self.last_output_rms
        return encode_samples(samples, params)

    def _get_decoder(self, codec_id: CodecID):
        key = (codec_id, self._params.sample_rate)
        if self._decoder_key != key:
            if codec_id == CodecID.VORBIS_LIKE:
                self._decoder = get_codec(
                    codec_id, sample_rate=self._params.sample_rate
                )
            else:
                self._decoder = get_codec(codec_id)
            self._decoder_key = key
        return self._decoder
