"""The Audio Stream Rebroadcaster: VAD master -> multicast (§2.2, §2.3).

A deliberately *single-threaded* producer process — "the Rebroadcaster is
just a single-threaded process that collects audio from the master-side VAD
and delivers it to the LAN" — that:

* reads records from ``/dev/vadm``;
* paces them through the :class:`~repro.core.ratelimiter.RateLimiter`
  (without it, a whole MP3 leaves at wire speed and the speakers hear only
  the first few seconds — §3.1);
* compresses per the channel's policy (Vorbis-like for high-bit-rate
  channels, raw for low-rate ones — §2.2);
* multicasts data packets stamped with play times, interleaving control
  packets at a fixed interval so joining speakers can configure and
  synchronise without contacting anyone (§2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.audio.encodings import decode_samples
from repro.audio.params import AudioParams
from repro.codec.base import CodecID, get_codec
from repro.codec.cache import EncodeCache, EncodedBlock
from repro.codec.cost import DEFAULT_COSTS, estimated_ratio
from repro.core.channel import ChannelConfig
from repro.core.protocol import EPOCH_MOD, SEQ_MOD, ControlPacket, DataPacket
from repro.core.ratelimiter import RateLimiter
from repro.metrics.telemetry import DEFAULT_DEPTH_BUCKETS, get_telemetry
from repro.sim.process import Process, Sleep
from repro.sim.resources import QueueClosed


@dataclass
class RebroadcasterStats:
    control_sent: int = 0
    data_sent: int = 0
    #: data frames the segment refused (the data ledger's wire deficit)
    send_failures: int = 0
    #: control frames the segment refused; no listener's ledger counts
    #: control frames, so these are kept apart from ``send_failures``
    control_send_failures: int = 0
    raw_bytes: int = 0
    sent_payload_bytes: int = 0
    records_in: int = 0
    suspended_blocks: int = 0
    suspended_bytes: int = 0

    @property
    def compression_ratio(self) -> float:
        """sent / raw over *transmitted* blocks (1.0 = no compression).

        Edge reporting: before any block has been ingested the ratio is
        1.0 by convention (nothing has been altered).  When blocks were
        ingested but every one was suspended (``raw_bytes == 0`` with
        ``suspended_blocks > 0``) the ratio is 0.0 — nothing reached the
        wire, and reporting 1.0 here used to make a fully-suspended
        channel look like a healthy uncompressed one.  Suspended blocks
        are accounted in ``suspended_bytes`` and never skew the ratio of
        the blocks that were actually sent.
        """
        if self.raw_bytes == 0:
            return 0.0 if self.suspended_blocks else 1.0
        return self.sent_payload_bytes / self.raw_bytes


class Rebroadcaster:
    """One channel's producer.  Create, then :meth:`start`."""

    def __init__(
        self,
        machine,
        channel: ChannelConfig,
        control_interval: float = 1.0,
        rate_limit: bool = True,
        real_codec: bool = True,
        master_path: str = "/dev/vadm",
        authenticator=None,
        cost_model=None,
        telemetry=None,
        epoch: int = 0,
        encode_cache: Optional[EncodeCache] = None,
    ):
        self.machine = machine
        self.channel = channel
        self.control_interval = control_interval
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.limiter = RateLimiter(enabled=rate_limit,
                                   telemetry=self.telemetry)
        self.real_codec = real_codec
        self.master_path = master_path
        self.authenticator = authenticator
        self.costs = cost_model or DEFAULT_COSTS
        #: station-wide :class:`~repro.codec.cache.EncodeCache` (or None):
        #: looped sources and same-source multi-channel setups reuse wire
        #: bytes instead of re-encoding.  Host-side only — the virtual
        #: CPU is charged the full encode cost before the lookup.
        self.encode_cache = encode_cache
        self.stats = RebroadcasterStats()
        # cached instruments: one label per channel so system-level
        # conservation can sum with Telemetry.total(); with telemetry
        # disabled these are shared no-op singletons
        tel, label = self.telemetry, f"ch{channel.channel_id}"
        self._track = f"{machine.name}/rb"
        self._c_data = tel.counter(f"rebroadcaster.data_sent[{label}]")
        self._c_ctl = tel.counter(f"rebroadcaster.control_sent[{label}]")
        self._c_raw = tel.counter(f"rebroadcaster.raw_bytes[{label}]")
        self._c_wire = tel.counter(f"rebroadcaster.sent_bytes[{label}]")
        self._c_susp = tel.counter(f"rebroadcaster.suspended[{label}]")
        self._c_fail = tel.counter(f"rebroadcaster.send_failures[{label}]")
        #: frames per real encoder invocation — cache hits and synthetic
        #: estimates don't run the kernel, so they are not observed
        self._h_batch = tel.histogram(
            "origin.encode_batch", bounds=DEFAULT_DEPTH_BUCKETS
        )
        self.suspended = False
        #: producer incarnation stamped into every packet; a warm standby
        #: taking over (or an operator restarting the producer) bumps it
        #: so speakers re-anchor instead of reading the handover as drift
        self.epoch = epoch % EPOCH_MOD
        self._proc: Optional[Process] = None
        self._params: Optional[AudioParams] = None
        self._codec_id = CodecID.RAW
        self._encoder = None
        self._seq = 0
        self._ctl_seq = 0
        self._need_control = False
        self._last_control = float("-inf")
        #: WAN relay-tree taps: every wire packet (control and data) is
        #: teed here before LAN transmission — see :meth:`add_wan_tap`
        self._wan_taps: list = []

    def start(self) -> Process:
        """Spawn the producer process on its machine."""
        self._proc = self.machine.spawn(
            self._run(), name=f"{self.machine.name}/rebroadcaster"
        )
        return self._proc

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.kill()

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.alive

    def hang(self, freeze_cpu: bool = False) -> None:
        """Wedge the producer process (see ``Process.freeze``)."""
        if self._proc is not None and self._proc.alive:
            self._proc.freeze()
        if freeze_cpu:
            self.machine.cpu.halt()

    def unhang(self) -> None:
        self.machine.cpu.unhalt()
        if self._proc is not None:
            self._proc.thaw()

    def restart(self, epoch: Optional[int] = None) -> Process:
        """Restart a dead (or wedged) producer process.

        The new incarnation must not silently continue the old schedule:
        its epoch is bumped (or set to ``epoch``) so speakers re-anchor.
        The stream clock and the VAD backlog carry over — this is the
        same machine rebooting the producer daemon, not a new source.
        """
        self.machine.cpu.unhalt()
        if self._proc is not None and self._proc.alive:
            self._proc.kill()
        self.epoch = (self.epoch + 1 if epoch is None else epoch) % EPOCH_MOD
        self._need_control = True
        return self.start()

    def suspend(self) -> None:
        """§4.3 (MSNIP): stop transmitting while nobody listens.

        The stream clock keeps running (the source keeps playing into the
        VAD), so a later :meth:`resume` rejoins the live position and
        speakers resynchronise off the next control packet.
        """
        self.suspended = True

    def resume(self) -> None:
        self.suspended = False
        self._need_control = True  # re-announce the configuration promptly

    # -- the single-threaded loop ---------------------------------------------------

    def _run(self):
        machine = self.machine
        fd = yield from machine.sys_open(self.master_path)
        sock = machine.net.socket()
        while True:
            try:
                record = yield from machine.sys_read(fd, 65536)
            except QueueClosed:
                return
            self.stats.records_in += 1
            if record.kind == "config":
                # do NOT announce yet: an application may configure long
                # before it produces audio (prebuffering radio clients).
                # The control packet goes out right before the first data
                # packet so speakers anchor on the actual schedule.
                self._configure(record.params)
                self._need_control = True
            else:
                yield from self._handle_data(sock, record.payload)

    def _configure(self, params: AudioParams) -> None:
        self._params = params
        self._codec_id = self.channel.effective_codec(params)
        self._encoder = None  # (re)built lazily per block geometry

    def _get_encoder(self, params: AudioParams, payload_len: int):
        """The encoder for the current block size.

        Small blocks (low sample rates, small device blocksizes) would
        drown in MDCT padding with CD-sized frames, so the frame size
        adapts: at most a quarter of the block, within [64, 512].
        """
        if self._codec_id == CodecID.RAW or not self.real_codec:
            return None
        if self._codec_id == CodecID.VORBIS_LIKE:
            frames = max(1, params.frames_of(payload_len))
            frame_size = 64
            while frame_size * 4 <= frames and frame_size < 512:
                frame_size *= 2
            if (
                self._encoder is None
                or self._encoder.frame_size != frame_size
            ):
                self._encoder = get_codec(
                    self._codec_id,
                    quality=self.channel.quality,
                    sample_rate=params.sample_rate,
                    frame_size=frame_size,
                )
        elif self._encoder is None:
            self._encoder = get_codec(self._codec_id)
        return self._encoder

    def _handle_data(self, sock, payload: bytes):
        machine = self.machine
        if self._params is None:
            # an application that never configured the device: adopt the
            # channel's default parameters and announce them
            self._configure(self.channel.params)
            self._need_control = True
        params = self._params
        tracer = self.telemetry.tracer
        # §3.1: sleep exactly as long as the block takes to play
        play_at = self.limiter.stream_pos
        delay = self.limiter.delay_before(len(payload), params, machine.sim.now)
        if delay > 0:
            wait = tracer.begin("ratelimiter.wait", track=self._track)
            yield Sleep(delay)
            tracer.end(wait)
        if self.suspended:
            # transmission suspended (no listeners): the stream clock
            # advanced above, the block itself goes nowhere
            self.stats.suspended_blocks += 1
            self.stats.suspended_bytes += len(payload)
            self._c_susp.inc()
            return
        if self._need_control:
            self._need_control = False
            yield from self._send_control(sock)
        enc = tracer.begin("packet.encode", track=self._track,
                           bytes=len(payload))
        wire_payload, synthetic = yield from self._compress(payload, params)
        tracer.end(enc, wire_bytes=len(wire_payload))
        self._seq = (self._seq + 1) % SEQ_MOD
        packet = DataPacket(
            channel_id=self.channel.channel_id,
            seq=self._seq,
            play_at=play_at,
            payload=wire_payload,
            codec_id=self._codec_id,
            synthetic=synthetic,
            pcm_bytes=len(payload),
            epoch=self.epoch,
        )
        ok = yield from self._send(sock, packet.encode())
        self.stats.data_sent += 1
        self.stats.raw_bytes += len(payload)
        self.stats.sent_payload_bytes += len(wire_payload)
        self._c_data.inc()
        self._c_raw.inc(len(payload))
        self._c_wire.inc(len(wire_payload))
        if not ok:
            self.stats.send_failures += 1
            self._c_fail.inc()
        else:
            tracer.flow_begin(
                (self.channel.channel_id, self._seq),
                "packet.flight", track=self._track,
            )
        if machine.sim.now - self._last_control >= self.control_interval:
            yield from self._send_control(sock)

    def _compress(self, payload: bytes, params: AudioParams):
        machine = self.machine
        codec_id = self._codec_id
        frames = params.frames_of(len(payload))
        cost = self.costs[codec_id]
        cycles = cost.encode_cycles(frames, self.channel.quality)
        if cycles > 0:
            yield machine.cpu.run(cycles, domain="user")
        if codec_id == CodecID.RAW:
            # passthrough: no encoder ran, nothing cacheable
            return payload, False
        encoder = self._get_encoder(params, len(payload))
        if encoder is not None:
            # the virtual CPU was charged the full encode above, so a
            # cache hit changes host wall-clock only — never sim time
            cache = self.encode_cache
            if cache is not None:
                key = EncodeCache.key_for(
                    payload, codec_id, params, self.channel.quality
                )
                entry = cache.get(key)
                if entry is not None:
                    return entry.wire, False
            samples = decode_samples(payload, params)
            self._h_batch.observe(frames)
            wire = encoder.encode_block(samples)
            if cache is not None:
                cache.put(key, EncodedBlock(wire=wire))
            return wire, False
        # synthetic size estimate (real_codec=False): not a function of
        # the payload bytes alone, so it must bypass the cache
        size = max(16, int(len(payload) * estimated_ratio(
            codec_id, self.channel.quality
        )))
        return bytes(size), True

    def _send_control(self, sock):
        if self._params is None:
            return
        self._ctl_seq = (self._ctl_seq + 1) % SEQ_MOD
        packet = ControlPacket(
            channel_id=self.channel.channel_id,
            seq=self._ctl_seq,
            wall_clock=self.machine.sim.now,
            stream_pos=self.limiter.position_at(self.machine.sim.now),
            params=self._params,
            codec_id=self._codec_id,
            quality=self.channel.quality,
            name=self.channel.name,
            epoch=self.epoch,
        )
        self._last_control = self.machine.sim.now
        if not (yield from self._send(sock, packet.encode())):
            self.stats.control_send_failures += 1
        self.stats.control_sent += 1
        self._c_ctl.inc()

    def add_wan_tap(self, tap) -> None:
        """Tee every outgoing wire packet to ``tap(wire)`` — the origin
        of a WAN relay tree (see :mod:`repro.net.wan`).

        The tap sees exactly the protocol bytes the LAN sees, *before*
        any MACsec-style authentication wrap (each LAN secures its own
        segment), so relays can forward them tandem-free — the payload
        is never decoded again until a speaker plays it.
        """
        self._wan_taps.append(tap)

    def _send(self, sock, wire: bytes):
        machine = self.machine
        for tap in self._wan_taps:
            tap(wire)
        if self.authenticator is not None:
            yield machine.cpu.run(
                self.authenticator.sign_cycles(len(wire)), domain="user"
            )
            wire = self.authenticator.wrap(wire)
        # sendto syscall: trap + copyin of the datagram
        cycles = machine.syscall_cycles + machine.copy_cycles_per_byte * len(wire)
        yield machine.cpu.run(cycles, domain="sys")
        return sock.sendto(wire, (self.channel.group_ip, self.channel.port))
