"""Speaker cohorts: N identical unity-gain receivers as one state block.

``BENCH_fanout.json`` put the scaling wall at per-speaker Python-object
and event cost.  A :class:`SpeakerCohort` removes it for the common case
— many speakers tuned to the same channel, all at unity gain, all seeing
the same loss-free stream — by running **one** real exemplar
:class:`~repro.core.speaker.EthernetSpeaker` on a private backplane and
representing the other N-1 members as rows of numpy arrays (seq/dup
windows, ring offsets, drop/epoch counters, playout clocks) that advance
in lockstep with the exemplar, one event per delivered frame instead of
N.

The moment a member's stream diverges from the shared one — a
per-receiver loss/jitter/corruption draw, a duplicate, a reorder hold, a
crash or hang — that member **spills**: a full per-object speaker is
built mid-stream carrying the member's seq window, ring offset, playout
clock and ledger, and from then on it is an ordinary node.  The spill is
timed so the clone is bit-identical to the per-object speaker it stands
in for: it executes at the exemplar's packet boundary *before* the first
frame the member did not share, so every scalar the clone copies is
exactly the state the per-object twin had at that instant.

Fate draws stay scalar and in per-member order (see
``FaultInjector._copy_fate`` and the segment/switch cohort loops), so a
seeded cohort run consumes the wire RNG in exactly the sequence the
per-object fleet does — the property the differential harness
(``tests/core/test_cohort_differential.py``) asserts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace as _dc_replace
from typing import List, Optional

import numpy as np

from repro.core.protocol import TYPE_DATA, peek_type
from repro.core.speaker import EthernetSpeaker
from repro.kernel.audio import AudioDevice, HardwareAudioDriver, SpeakerSink
from repro.kernel.machine import Machine
from repro.net.nic import Nic
from repro.net.segment import Datagram

#: member token states
ALIGNED = 0    # represented by the exemplar + array row
PENDING = 1    # divergence drawn, spill armed on the exemplar's boundary
SPILLED = 2    # full per-object speaker


class VectorSeqWindows:
    """The speaker's 128-entry recent-seq window, N rows at a time.

    Row semantics match ``EthernetSpeaker`` exactly: ``_recent_seqs`` is
    the set of live ring entries, ``_recent_order`` is the ring in
    insertion order, and ``_last_seq`` is -1 for "no sequence seen yet".
    ``tests/core/test_cohort_window.py`` holds the array semantics to the
    scalar ones across wraparound, eviction and epoch resets.
    """

    def __init__(self, members: int, window: int = 128):
        self.n = members
        self.window = window
        self.ring = np.full((members, window), -1, dtype=np.int64)
        self.pos = np.zeros(members, dtype=np.int64)
        self.count = np.zeros(members, dtype=np.int64)
        self.last_seq = np.full(members, -1, dtype=np.int64)

    def seen(self, rows, seq: int):
        """Boolean per row: is ``seq`` in the row's recent window?"""
        return (self.ring[rows] == seq).any(axis=-1)

    def accept(self, rows, seq: int) -> None:
        """Remember ``seq`` on every selected row (the scalar
        ``_remember_seq`` + ``_last_seq`` update, broadcast)."""
        self.last_seq[rows] = seq
        pos = self.pos[rows]
        self.ring[rows, pos] = seq
        self.pos[rows] = (pos + 1) % self.window
        np.minimum(self.count[rows] + 1, self.window, out=pos)
        self.count[rows] = pos

    def reset(self, rows) -> None:
        """The scalar ``_reset_stream_state`` for the window."""
        self.ring[rows] = -1
        self.pos[rows] = 0
        self.count[rows] = 0
        self.last_seq[rows] = -1

    def extract(self, idx: int):
        """Scalar carry-out for a spilling member: ``(last_seq|None,
        insertion-ordered recent seqs)``."""
        count = int(self.count[idx])
        pos = int(self.pos[idx])
        if count < self.window:
            order = self.ring[idx, :count]
        else:
            order = np.concatenate([self.ring[idx, pos:],
                                    self.ring[idx, :pos]])
        last = int(self.last_seq[idx])
        return (None if last < 0 else last), [int(s) for s in order]


class _CohortBackplane:
    """Duck-typed segment for the exemplar and spilled clones.

    It is never a transmission medium — speakers only receive — so
    attach/detach book-keeping is all it needs.  Keeping these NICs off
    the real LAN preserves the LAN's ``_nics`` order and therefore the
    wire RNG draw sequence the differential harness depends on.
    """

    def __init__(self):
        self._nics: List[Nic] = []

    def attach(self, nic) -> None:
        self._nics.append(nic)

    def detach(self, nic) -> None:
        if nic in self._nics:
            self._nics.remove(nic)

    def invalidate_receivers(self) -> None:
        pass  # nothing is ever transmitted here, so nothing is cached

    def transmit(self, dgram, sender=None) -> bool:  # pragma: no cover
        return True

    def set_fault_injector(self, faults) -> None:  # pragma: no cover
        pass


class CohortNic(Nic):
    """The cohort's one seat on the LAN.

    Segment and switch delivery loops recognise the ``cohort`` attribute
    and run the per-member fate loop instead of a single delivery; the
    plain :meth:`deliver` fallback treats the frame as clean for every
    member (used only by paths that bypass the cohort-aware loops, e.g.
    an injector flush for a key that is not a member token).
    """

    def __init__(self, segment, ip: str, vlan: int, cohort: "SpeakerCohort"):
        super().__init__(segment, ip, vlan=vlan, name=f"{cohort.name}/nic")
        self.cohort = cohort

    @property
    def receiver_count(self) -> int:
        return self.cohort.members

    def deliver(self, dgram: Datagram) -> None:
        self.rx_frames += 1
        self.cohort._fallback_deliver(dgram)


class CohortMember:
    """One member's permanent identity.

    The token outlives every state transition — it is the key the fault
    injector's Gilbert–Elliott chains and reorder holds are filed under,
    so a member keeps its loss-burst phase across ALIGNED → PENDING →
    SPILLED.  ``deliver`` is the NIC-shaped entry point those mechanisms
    call: before the spill it parks the copy; after, it feeds the clone.
    """

    __slots__ = ("cohort", "idx", "state", "buffer", "pend_offer",
                 "pend_frame", "hang_req", "node", "spill_reason")

    def __init__(self, cohort: "SpeakerCohort", idx: int):
        self.cohort = cohort
        self.idx = idx
        self.state = ALIGNED
        self.buffer: List[Datagram] = []
        self.pend_offer: Optional[int] = None
        self.pend_frame: Optional[int] = None
        self.hang_req = False
        self.node: Optional[EthernetSpeaker] = None
        self.spill_reason = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CohortMember {self.cohort.name}[{self.idx}] s={self.state}>"

    # -- NIC duck type (what FaultInjector and the wire loops call) ---------

    def deliver(self, dgram: Datagram) -> None:
        if self.state == SPILLED:
            self.node.machine.net.nic.deliver(dgram)
        else:
            # divergence copies arriving before the spill executes; the
            # spill pours these into the clone's socket at the same
            # virtual instant, so nothing is early or late
            self.buffer.append(dgram)

    # -- node-shaped handle (what schedule_fault and tests use) -------------

    @property
    def spilled(self) -> bool:
        return self.state == SPILLED

    @property
    def speaker(self) -> EthernetSpeaker:
        return self.node if self.node is not None else self.cohort.exemplar

    @property
    def stats(self):
        return self.speaker.stats

    @property
    def sink(self) -> SpeakerSink:
        if self.node is not None:
            return self.node._cohort_sink
        return self.cohort._ex_sink

    def crash(self) -> None:
        self.cohort.crash_member(self)

    def hang(self) -> None:
        self.cohort.hang_member(self)

    def unhang(self) -> None:
        if self.node is not None:
            self.node.unhang()
        else:  # never spilled: the hang request never landed
            self.hang_req = False

    def cold_restart(self) -> None:
        self.cohort.restart_member(self)


class _ExemplarSpeaker(EthernetSpeaker):
    """The one real speaker that stands for every aligned member.

    Overrides the cohort hooks in the receive loop: offers are resolved
    and spills executed *before* a packet is consumed, and each packet's
    scalar effects are folded into the member arrays afterwards.
    """

    cohort: "SpeakerCohort" = None

    def _open_socket(self):
        sock = super()._open_socket()
        self.cohort._instrument_socket(sock)
        return sock

    def _note_packet_start(self, msg) -> None:
        c = self.cohort
        offer, _is_data = c._meta.popleft()
        if c._pending or c._hangs:
            c._run_spills(offer, msg)

    def _packet_boundary(self) -> None:
        self.cohort._sync_rows()

    def _remember_seq(self, seq: int) -> None:
        super()._remember_seq(seq)
        c = self.cohort
        c.windows.accept(c._mask, seq)

    def _reset_stream_state(self) -> None:
        super()._reset_stream_state()
        c = self.cohort
        if c is not None:
            c.windows.reset(c._mask)


class SpeakerCohort:
    """N identical unity-gain speakers advanced as one state block.

    Construction mirrors ``EthernetSpeakerSystem.add_speaker`` member for
    member — same machine speed, same audio geometry, same socket depth —
    but only the exemplar is real; the rest are array rows until they
    spill.  Per-member gain, verifiers and room models are per-object
    concerns and are rejected here: a member needing them should be an
    ordinary ``add_speaker`` node.
    """

    def __init__(
        self,
        sim,
        lan,
        members: int,
        group_ip: str,
        port: int,
        *,
        ip: str,
        vlan: int = 1,
        cpu_freq_hz: float = 233e6,
        block_seconds: float = 0.065,
        speaker_kwargs: Optional[dict] = None,
        name: str = "cohort0",
        telemetry=None,
    ):
        if members < 1:
            raise ValueError("a cohort needs at least one member")
        kwargs = dict(speaker_kwargs or {})
        # a per-speaker ``telemetry`` override wins, as in ``add_speaker``
        kwargs.setdefault("telemetry", telemetry)
        for bad in ("verifier", "room"):
            if kwargs.get(bad) is not None:
                raise ValueError(f"cohort members cannot carry a {bad}")
        self.sim = sim
        self.lan = lan
        self.members = members
        self.group_ip = group_ip
        self.port = port
        self.name = name
        self.telemetry = telemetry
        #: events that did not need scheduling because one exemplar event
        #: represented many members (the ``cohort_events_saved`` row)
        self.events_saved = 0
        self.spills = 0
        # -- the exemplar on its private backplane --------------------------
        self._backplane = _CohortBackplane()
        self._speaker_kwargs = kwargs
        self._cpu_freq_hz = cpu_freq_hz
        self._block_seconds = block_seconds
        machine = Machine(sim, f"{name}-ex", cpu_freq_hz=cpu_freq_hz)
        machine.attach_network(self._backplane, ip, vlan=vlan)
        self._ex_sink = SpeakerSink(f"{name}-ex/speaker")
        self._ex_driver = HardwareAudioDriver(machine, sink=self._ex_sink)
        self._ex_device = AudioDevice(
            machine, self._ex_driver, block_seconds=block_seconds,
            telemetry=telemetry,
        )
        machine.register_device(kwargs.get("audio_path", "/dev/audio"),
                                self._ex_device)
        self.exemplar = _ExemplarSpeaker(
            machine, group_ip, port, name=f"{name}-ex", **kwargs,
        )
        self.exemplar.cohort = self
        # -- the LAN seat and member tokens ---------------------------------
        self.nic = CohortNic(lan, ip, vlan, self)
        self.nic.join_group(group_ip)
        self.tokens = [CohortMember(self, i) for i in range(members)]
        self._pending: List[CohortMember] = []
        self._hangs: List[CohortMember] = []
        # -- array-backed member state --------------------------------------
        self.windows = VectorSeqWindows(members,
                                        EthernetSpeaker.RECENT_SEQ_WINDOW)
        self._mask = np.ones(members, dtype=bool)  # aligned + pending rows
        z = lambda dt: np.zeros(members, dtype=dt)
        self.arr_bytes_written = z(np.int64)
        self.arr_write_base = z(np.int64)
        self.arr_epoch = np.full(members, -1, dtype=np.int64)
        self.arr_anchor_time = z(np.float64)
        self.arr_anchor_pos = z(np.float64)
        self.arr_anchored = z(bool)
        self.arr_playing = z(bool)
        self.arr_gap_started = np.full(members, np.nan, dtype=np.float64)
        #: per-member ledger counters, mirrored from the exemplar at every
        #: packet boundary (the "drop/epoch counters" of the array block)
        self.counters = {
            f: z(np.int64) for f in (
                "data_rx", "control_rx", "played", "late_dropped",
                "waiting_dropped", "seq_gaps", "concealed", "dup_dropped",
                "reorder_dropped", "decode_failed", "resyncs",
                "epoch_resyncs", "epoch_dropped", "stale_controls",
                "socket_data_drops", "garbage_rx",
            )
        }
        # -- shared-delivery machinery --------------------------------------
        self._next_offer = 0       # exemplar socket delivery attempts
        self._meta = deque()       # (offer, is_data) per queued item
        self._watch = {}           # id(payload) -> (payload, [tokens])
        self._frame_idx = 0        # transmit-side frame counter
        self._inflight = deque()   # [frame_idx, deliver_at, dgram]
        self.exemplar.start()

    # -- counts -------------------------------------------------------------

    @property
    def aligned(self) -> int:
        return sum(1 for t in self.tokens if t.state == ALIGNED)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def needs_reference_stream(self) -> bool:
        """The exemplar must keep consuming while anyone mirrors it —
        pending members spill from its packet boundaries."""
        return bool(self._mask.any())

    # -- wire-side entry points ---------------------------------------------

    def mark_divergent(self, tok: CohortMember, dgram: Datagram,
                       reason: str = "fault") -> None:
        """Member ``tok``'s copy of ``dgram`` differs from the shared one
        (lost, duplicated, corrupted, jittered or held).  Arm the spill:
        it fires when the exemplar is about to consume this frame, i.e.
        at the last instant member and exemplar state still agree."""
        if tok.state != ALIGNED:
            return
        tok.state = PENDING
        tok.spill_reason = reason
        tok.pend_frame = self._frame_idx + 1
        key = id(dgram.payload)
        entry = self._watch.get(key)
        if entry is None:
            # the payload ref pins the id() until the exemplar sees it
            self._watch[key] = (dgram.payload, [tok])
        else:
            entry[1].append(tok)
        self._pending.append(tok)

    def finish_frame(self, dgram: Datagram, delay: float,
                     represented: int) -> None:
        """End of the per-member fate loop for one frame: schedule the
        single shared delivery standing in for ``represented`` aligned
        members (and for the spill boundaries of pending ones)."""
        self._frame_idx += 1
        if represented > 0:
            self.events_saved += represented - 1
        if represented > 0 or self._pending:
            entry = [self._frame_idx, self.sim.now + delay, dgram]
            self._inflight.append(entry)
            self.sim.schedule_transient(delay, self._clean_rx, entry)

    def _clean_rx(self, entry) -> None:
        self._inflight.popleft()
        self.exemplar.machine.net.nic.deliver(entry[2])

    def _fallback_deliver(self, dgram: Datagram) -> None:
        represented = 0
        for tok in self.tokens:
            if tok.state == ALIGNED:
                represented += 1
            else:
                tok.deliver(dgram)
        self.finish_frame(dgram, 0.0, represented)

    # -- exemplar-side machinery ---------------------------------------------

    def _instrument_socket(self, sock) -> None:
        """Wrap the exemplar socket's enqueue to assign offer indices and
        resolve armed spills to them.  Offers count delivery *attempts*;
        the meta deque mirrors only what actually queued, so it stays in
        lockstep with the receive loop's consumption order."""
        inner = sock._enqueue

        def enqueue(item):
            offer = self._next_offer
            self._next_offer += 1
            watched = self._watch.pop(id(item.payload), None)
            if watched is not None:
                for tok in watched[1]:
                    if tok.pend_offer is None:
                        tok.pend_offer = offer
            drops = sock.drops
            inner(item)
            if sock.drops == drops:
                self._meta.append(
                    (offer, peek_type(item.payload) == TYPE_DATA)
                )

        sock._enqueue = enqueue

    def _run_spills(self, offer: int, msg=None) -> None:
        due = [t for t in self._pending
               if t.pend_offer is not None and t.pend_offer <= offer]
        for tok in due:
            self._pending.remove(tok)
            self._spill(tok, crashed=False)
        if self._hangs:
            hangs, self._hangs = self._hangs, []
            for tok in hangs:
                if tok.state != SPILLED:
                    if tok in self._pending:
                        self._pending.remove(tok)
                    # a hanging member stops consuming but keeps
                    # receiving: its per-object twin freezes with every
                    # shared-but-unconsumed packet still queued — carry
                    # the exemplar's backlog (and the packet the exemplar
                    # is about to consume) so the restart drains and
                    # classifies the same copies
                    self._spill(tok, crashed=False, carry_queue=True,
                                head=msg)
                tok.node.hang()

    def _sync_rows(self) -> None:
        """Fold the packet the exemplar just processed into every
        mirroring row (the one-event-for-N advance)."""
        if not self._mask.any():
            return
        ex = self.exemplar
        m = self._mask
        st = ex.stats
        self.arr_bytes_written[m] = ex._bytes_written
        self.arr_write_base[m] = ex._write_base
        self.arr_epoch[m] = -1 if ex._epoch is None else ex._epoch
        anchored = ex._anchor is not None
        self.arr_anchored[m] = anchored
        if anchored:
            self.arr_anchor_time[m] = ex._anchor[0]
            self.arr_anchor_pos[m] = ex._anchor[1]
        self.arr_playing[m] = ex._playing_started
        self.arr_gap_started[m] = (
            np.nan if ex._gap_started is None else ex._gap_started
        )
        counters = self.counters
        for field, arr in counters.items():
            arr[m] = getattr(st, field)

    # -- the spill ------------------------------------------------------------

    def _clone_cpu_state(self, machine: Machine, proc_map) -> None:
        """Replicate the exemplar CPU's scheduling context on the clone.

        Without the in-flight slice the clone would dispatch its next job
        up to a DMA-tick ISR early and drift off the per-object timeline.
        """
        from repro.sim.cpu import IDLE, _CpuJob

        ex = self.exemplar.machine.cpu
        cpu = machine.cpu
        cpu._last_owner = proc_map(ex._last_owner)
        cpu._continuous = ex._continuous
        cpu._last_busy_end = ex._last_busy_end
        if ex._current is not None:
            job = ex._current
            slice_cycles = min(ex.quantum * ex.freq_hz, job.remaining)
            twin = _CpuJob(cpu, slice_cycles, job.domain,
                           proc_map(job.owner))
            twin.running = True
            cpu._current = twin
            cpu._slice_end_at = ex._slice_end_at
            self.sim.schedule_transient(
                max(0.0, ex._slice_end_at - self.sim.now),
                cpu._slice_done, twin, slice_cycles,
            )
        for job in ex._run_queue:
            cpu._run_queue.append(
                _CpuJob(cpu, job.remaining, job.domain, proc_map(job.owner))
            )

    def _spill(self, tok: CohortMember, crashed: bool,
               carry_queue: bool = False, head=None) -> None:
        """Materialise member ``tok`` as a per-object speaker.

        For boundary spills (``crashed=False``) this runs inside the
        exemplar's ``_note_packet_start``, before the first frame the
        member did not share, so member state *is* exemplar state.  For
        crash spills it runs at the fault instant; the member and the
        exemplar sat at the same yield of the same timeline, so the live
        copy (half-finished packet included) is exact there too.
        """
        ex = self.exemplar
        idx = tok.idx
        sim = self.sim
        now = sim.now
        machine = Machine(sim, f"{self.name}-m{idx}",
                          cpu_freq_hz=self._cpu_freq_hz)
        machine.attach_network(self._backplane, f"{self.nic.ip}.{idx}",
                               vlan=self.nic.vlan)
        sink = SpeakerSink(f"{self.name}-m{idx}/speaker")
        sink.records = list(self._ex_sink.records)
        sink.silence_events = self._ex_sink.silence_events
        sink.first_audio_time = self._ex_sink.first_audio_time
        driver = HardwareAudioDriver(machine, sink=sink)
        driver.blocks_played = self._ex_driver.blocks_played
        driver._running = self._ex_driver._running
        driver._halt_requested = self._ex_driver._halt_requested
        exdev = self._ex_device
        device = AudioDevice(machine, driver,
                             block_seconds=exdev.block_seconds,
                             ring_blocks=exdev.ring_blocks,
                             telemetry=self.telemetry)
        device.params = exdev.params
        device._recompute_sizes()
        device._chunks = deque(exdev._chunks)
        device._level = exdev._level
        device.started = exdev.started
        device._silent_run = exdev._silent_run
        device._close_requested = exdev._close_requested
        device.underruns = exdev.underruns
        device.silence_bytes = exdev.silence_bytes
        device.bytes_written = exdev.bytes_written
        audio_path = self._speaker_kwargs.get("audio_path", "/dev/audio")
        machine.register_device(audio_path, device)
        if driver._running and sink.records:
            # the DMA chain is live: the clone's next completion lands at
            # the same instant the exemplar's will
            last_t, last_data, _, params = sink.records[-1]
            next_tick = last_t + params.duration_of(len(last_data))
            sim.schedule(max(0.0, next_tick - now), driver._tick, device)
        clone = EthernetSpeaker(
            machine, self.group_ip, self.port, name=f"{self.name}-m{idx}",
            **self._speaker_kwargs,
        )
        clone._cohort_sink = sink
        # scalar carry: the seq window and ring offset come from the
        # member's array row (== the exemplar's scalars by the lockstep
        # invariant); everything list-shaped is copied from the exemplar
        last_seq, order = self.windows.extract(idx)
        clone._last_seq = last_seq
        clone._recent_order = deque(order)
        clone._recent_seqs = set(order)
        clone._bytes_written = int(self.arr_bytes_written[idx])
        clone._write_base = int(self.arr_write_base[idx])
        epoch = int(self.arr_epoch[idx])
        clone._epoch = None if epoch < 0 else epoch
        if self.arr_anchored[idx]:
            clone._anchor = (float(self.arr_anchor_time[idx]),
                             float(self.arr_anchor_pos[idx]))
        clone._playing_started = bool(self.arr_playing[idx])
        gap = float(self.arr_gap_started[idx])
        clone._gap_started = None if np.isnan(gap) else gap
        clone._params = ex._params
        clone._last_pcm = ex._last_pcm
        clone._last_arrival = ex._last_arrival
        clone._last_block_seconds = ex._last_block_seconds
        clone._resync_candidate = ex._resync_candidate
        clone.last_output_rms = ex.last_output_rms
        clone.stats = _dc_replace(
            ex.stats,
            rejoin_gaps=list(ex.stats.rejoin_gaps),
            play_log=list(ex.stats.play_log),
            write_offsets=list(ex.stats.write_offsets),
        )
        sock = machine.net.socket(self.port,
                                  rx_capacity=ex.rx_buffer_packets)
        sock.join_multicast(self.group_ip)
        sock.drop_hook = clone._classify_drop
        clone._sock = sock
        fd = machine.open_direct(audio_path)
        sentinel = object()

        def proc_map(owner):
            if owner is ex._proc:
                return sentinel if crashed else "proc"
            return owner

        self._clone_cpu_state(machine, proc_map)
        self.spills += 1
        tok.state = SPILLED
        tok.node = clone
        self._mask[idx] = False
        if crashed or carry_queue:
            # the backlog: queued shared frames the member had also
            # received, then every in-flight shared delivery, land in the
            # clone's bounded queue exactly as they would have per-object
            # (a crash wreck and a hanging member both keep receiving
            # without consuming).  The barriers cut at the member's own
            # divergence, past which its copies travel via tok.buffer.
            barrier_o = tok.pend_offer
            barrier_f = tok.pend_frame
            if head is not None:
                sock._enqueue(head)
            items = list(ex._sock._rx._items)
            for meta, item in zip(self._meta, items):
                if barrier_o is not None and meta[0] >= barrier_o:
                    break
                sock._enqueue(item)
            for frame, at, dgram in self._inflight:
                if barrier_f is not None and frame >= barrier_f:
                    continue
                sim.schedule_transient(max(0.0, at - now),
                                       machine.net.nic.deliver, dgram)
        if crashed:
            clone._crashed = True
            clone._begin_outage_gap()
        for dgram in tok.buffer:
            machine.net.nic.deliver(dgram)
        tok.buffer = []
        if not crashed:
            proc = clone.start_resumed(sock, fd)
            cpu = machine.cpu
            if cpu._last_owner == "proc":
                cpu._last_owner = proc
            if cpu._current is not None and cpu._current.owner == "proc":
                cpu._current.owner = proc
            for job in cpu._run_queue:
                if job.owner == "proc":
                    job.owner = proc

    # -- member faults --------------------------------------------------------

    def crash_member(self, tok: CohortMember) -> None:
        if tok.state == SPILLED:
            tok.node.crash()
            return
        if tok in self._pending:
            self._pending.remove(tok)
        tok.spill_reason = tok.spill_reason or "crash"
        self._spill(tok, crashed=True)

    def hang_member(self, tok: CohortMember) -> None:
        """Hangs spill at the next exemplar packet boundary (documented
        approximation: a per-object hang freezes mid-wait; a cohort
        member freezes just before its next packet)."""
        if tok.state == SPILLED:
            tok.node.hang()
            return
        tok.hang_req = True
        self._hangs.append(tok)

    def restart_member(self, tok: CohortMember) -> None:
        if tok.state != SPILLED:
            if tok in self._pending:
                self._pending.remove(tok)
            tok.spill_reason = tok.spill_reason or "restart"
            self._spill(tok, crashed=True)
        tok.node.cold_restart()

    # -- ledgers --------------------------------------------------------------

    def _mirrored(self) -> int:
        return int(self._mask.sum())

    def stat_sum(self, field: str) -> int:
        """Sum a SpeakerStats counter over every member: mirroring rows
        share the exemplar's value, spilled members contribute their
        clone's."""
        total = self._mirrored() * getattr(self.exemplar.stats, field)
        for tok in self.tokens:
            if tok.state == SPILLED:
                total += getattr(tok.node.stats, field)
        return total

    def socket_drops(self) -> int:
        mirrored = self._mirrored()
        total = mirrored * self.exemplar._sock.drops
        for tok in self.tokens:
            if tok.state == SPILLED and tok.node._sock is not None:
                total += tok.node._sock.drops
        return total

    def pending_data(self) -> int:
        """Data copies queued but unconsumed, summed over members.

        A pending member's share of the exemplar queue stops at its
        divergence offer; copies parked in its token buffer are still in
        flight to it and count the same way.
        """
        ex_pending = self.exemplar.pending_data
        total = self.aligned * ex_pending
        for tok in self._pending:
            if tok.pend_offer is None:
                share = ex_pending
            else:
                share = sum(
                    1 for (offer, is_data) in self._meta
                    if is_data and offer < tok.pend_offer
                )
            share += sum(
                1 for d in tok.buffer if peek_type(d.payload) == TYPE_DATA
            )
            total += share
        for tok in self.tokens:
            if tok.state == SPILLED:
                total += tok.node.pending_data
                total += sum(
                    1 for d in tok.buffer
                    if peek_type(d.payload) == TYPE_DATA
                )
        return total

    def underruns(self) -> int:
        total = self._mirrored() * self._ex_device.underruns
        for tok in self.tokens:
            if tok.state == SPILLED:
                total += tok.node.machine.devices[
                    self._speaker_kwargs.get("audio_path", "/dev/audio")
                ].underruns
        return total

    def silence_seconds(self) -> float:
        total = self._mirrored() * self._ex_sink.silence_seconds
        for tok in self.tokens:
            if tok.state == SPILLED:
                total += tok.node._cohort_sink.silence_seconds
        return total

    # -- per-member views (the differential harness reads these) -------------

    def member_stats(self, i: int):
        return self.tokens[i].stats

    def member_play_log(self, i: int):
        return self.tokens[i].stats.play_log

    def member_write_offsets(self, i: int):
        return self.tokens[i].stats.write_offsets

