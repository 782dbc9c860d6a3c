"""The two-level audio driver (audio(4)/audio(9)).

Faithful to the structure §2.1.1 describes: one **hardware-independent
high-level driver** per device node ("handling the communications with
user-level processes, inserting silence if the internal ring-buffer runs
out of data") and a **low-level driver** per piece of hardware.  The
high-level driver invokes the low-level driver's ``trigger_output`` exactly
once, when the first block is ready; after that the low level is expected
to drive itself from its completion interrupt — "cutting out the
middleman".  That contract is what makes a pseudo device awkward (§3.3)
and is preserved here deliberately.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from repro.audio.encodings import decode_samples
from repro.audio.params import AudioParams
from repro.kernel.devices import CharDevice, DeviceError
from repro.sim.resources import Signal

# ioctl numbers (values arbitrary, names from audio(4))
AUDIO_SETINFO = 0xA001
AUDIO_GETINFO = 0xA002
AUDIO_DRAIN = 0xA003
AUDIO_FLUSH = 0xA004


class LowLevelAudioDriver:
    """audio(9): what a hardware-specific driver must provide."""

    def set_params(self, params: AudioParams) -> None:
        pass

    def trigger_output(self, device: "AudioDevice") -> None:
        """Called ONCE when the first block is ready to play."""
        raise NotImplementedError

    def halt_output(self) -> None:
        pass


class AudioDevice(CharDevice):
    """The hardware-independent high-level driver for one device node.

    Owns the ring buffer and flow control: writers block at ``hiwat`` and
    wake when the level drains to ``lowat``; the low level pulls blocks via
    :meth:`consume_block`, which hands out silence when the ring underruns.
    """

    #: consecutive silence blocks before output halts (prevents a stopped
    #: application from playing silence forever)
    MAX_SILENT_BLOCKS = 2

    def __init__(
        self,
        machine,
        lowlevel: LowLevelAudioDriver,
        block_seconds: float = 0.065,
        ring_blocks: int = 8,
        name: str = "audio0",
        telemetry=None,
    ):
        self.machine = machine
        self.lowlevel = lowlevel
        self.block_seconds = block_seconds
        self.ring_blocks = ring_blocks
        self.name = name
        if telemetry is None:
            # imported lazily: repro.metrics pulls in the kernel (vmstat)
            from repro.metrics.telemetry import get_telemetry
            telemetry = get_telemetry()
        self.telemetry = telemetry
        self._track = label = f"{machine.name}/{name}"
        self.params = AudioParams()
        self._chunks: deque[bytes] = deque()
        self._level = 0
        self._space = Signal(f"{name}/space")
        self._data = Signal(f"{name}/data")
        self._drained = Signal(f"{name}/drained")
        self.started = False
        self._silent_run = 0
        self._close_requested = False
        # stats
        self.underruns = 0
        #: writes that found the ring full and blocked at high water
        self.hiwat_blocks = 0
        self.silence_bytes = 0
        self.bytes_written = 0
        telemetry.register("audio", label, self, {
            "underruns": "underruns", "hiwat_blocks": "hiwat_blocks"})
        self._recompute_sizes()

    # -- geometry ----------------------------------------------------------------

    def _recompute_sizes(self) -> None:
        nbytes = self.params.bytes_for(self.block_seconds)
        frame = self.params.frame_bytes
        self.blocksize = max(frame, (nbytes // frame) * frame)
        self.hiwat = self.ring_blocks * self.blocksize
        self.lowat = self.hiwat // 2

    @property
    def level(self) -> int:
        """Bytes currently buffered."""
        return self._level

    # -- device entry points ------------------------------------------------------

    def write(self, handle, data: bytes):
        """Block-at-hiwat write, exactly like audio(4) output."""
        self._close_requested = False
        offset = 0
        total = len(data)
        while offset < total:
            if self._level >= self.hiwat:
                # high-water: the writer blocks until the ring drains
                self.hiwat_blocks += 1
                self.telemetry.tracer.instant(
                    "buffer.hiwat", track=self._track, level=self._level
                )
            while self._level >= self.hiwat:
                yield self._space.wait()
            room = self.hiwat - self._level
            take = min(room, total - offset)
            piece = data[offset : offset + take]
            # accumulate views, join once per block in _pop: ``bytes`` and
            # read-only memoryviews (the zero-copy packet payloads) are
            # immutable, so the ring can hold them without a defensive
            # copy; anything writable is snapshotted as before
            if not isinstance(piece, bytes) and not (
                isinstance(piece, memoryview) and piece.readonly
            ):
                piece = bytes(piece)
            self._chunks.append(piece)
            self._level += take
            offset += take
            self.bytes_written += take
            self._data.fire()
            if not self.started and self._level >= self.blocksize:
                self.started = True
                self._silent_run = 0
                self.lowlevel.trigger_output(self)
        return total

    def ioctl(self, handle, cmd: int, arg=None):
        if cmd == AUDIO_SETINFO:
            if not isinstance(arg, AudioParams):
                raise DeviceError("AUDIO_SETINFO needs AudioParams")
            self.params = arg
            self._recompute_sizes()
            self.lowlevel.set_params(arg)
            self._on_setinfo(arg)
            return None
        if cmd == AUDIO_GETINFO:
            return {
                "params": self.params,
                "blocksize": self.blocksize,
                "hiwat": self.hiwat,
                "lowat": self.lowat,
                "level": self._level,
            }
        if cmd == AUDIO_DRAIN:
            while self._level > 0:
                yield self._drained.wait()
            return None
        if cmd == AUDIO_FLUSH:
            self._chunks.clear()
            self._level = 0
            self._space.fire()
            self._drained.fire()
            return None
        raise DeviceError(f"{self.name}: unsupported ioctl {cmd:#x}")
        yield  # pragma: no cover

    def _on_setinfo(self, params: AudioParams) -> None:
        """Hook for the VAD: configuration must reach the master side."""

    # -- low-level driver interface -----------------------------------------------

    def consume_block(self) -> Optional[Tuple[bytes, bool]]:
        """Pop one block for the hardware; silence on underrun.

        Returns ``(data, is_silence)``, or ``None`` to tell the low level
        to stop its transfer loop (closed device, or sustained underrun).
        The silence insertion on a dry ring is the high-level driver's
        documented job (§2.1.1).
        """
        if self._level > 0:
            # a trailing partial block is played as-is (shorter transfer)
            # rather than padded, so one PCM byte in == one PCM byte out
            prev = self._level
            data = self._pop(min(self.blocksize, self._level))
            self._silent_run = 0
            self._maybe_wake(prev)
            return data, False
        if self._close_requested or self._silent_run >= self.MAX_SILENT_BLOCKS:
            self.started = False
            self._silent_run = 0
            return None
        if self._silent_run == 0:
            self.underruns += 1
            self.telemetry.tracer.instant(
                "buffer.underrun", track=self._track
            )
        self.silence_bytes += self.blocksize
        self._silent_run += 1
        return bytes(self.blocksize), True

    def close(self, handle) -> None:
        """Stop inserting silence once the buffered audio finishes.

        If a sub-blocksize tail never reached the start threshold, kick
        the low level now so it plays out rather than sticking in the
        ring forever.
        """
        self._close_requested = True
        if self._level > 0 and not self.started:
            self.started = True
            self.lowlevel.trigger_output(self)

    def take_block(self) -> Optional[bytes]:
        """Pop one block only if real data is available (no silence).

        Used by the VAD, which must pass through exactly what was written
        — a pseudo device has no reason to manufacture silence.
        """
        if self._level == 0:
            return None
        prev = self._level
        data = self._pop(min(self.blocksize, self._level))
        self._maybe_wake(prev)
        return data

    def wait_for_data(self):
        """Waitable for 'ring became non-empty'."""
        return self._data.wait()

    def _pop(self, nbytes: int) -> bytes:
        parts = []
        need = nbytes
        while need > 0 and self._chunks:
            chunk = self._chunks.popleft()
            if len(chunk) <= need:
                parts.append(chunk)
                need -= len(chunk)
            else:
                parts.append(chunk[:need])
                self._chunks.appendleft(chunk[need:])
                need = 0
        data = b"".join(parts)
        self._level -= len(data)
        return data

    def _maybe_wake(self, prev_level: int = -1) -> None:
        if self._level <= self.lowat:
            if prev_level > self.lowat:
                # low-water crossing: writers are about to wake
                self.telemetry.tracer.instant(
                    "buffer.lowat", track=self._track, level=self._level
                )
            self._space.fire()
        if self._level == 0:
            self._drained.fire()


class SpeakerSink:
    """Records everything the DAC emits, for offline verification.

    ``waveform()`` reconstructs the analogue output (silence insertions
    included) so tests can compare what an application wrote against what
    actually came out of the cone — skips, gaps, phase and all.
    """

    def __init__(self, name: str = "speaker"):
        self.name = name
        self.records: List[Tuple[float, bytes, bool, AudioParams]] = []
        self.silence_events = 0
        self.first_audio_time: Optional[float] = None

    def record(
        self, time: float, data: bytes, is_silence: bool, params: AudioParams
    ) -> None:
        self.records.append((time, data, is_silence, params))
        if is_silence:
            self.silence_events += 1
        elif self.first_audio_time is None:
            self.first_audio_time = time

    @property
    def played_seconds(self) -> float:
        return sum(p.duration_of(len(d)) for _, d, _, p in self.records)

    @property
    def audio_seconds(self) -> float:
        return sum(
            p.duration_of(len(d)) for _, d, s, p in self.records if not s
        )

    @property
    def silence_seconds(self) -> float:
        return self.played_seconds - self.audio_seconds

    def waveform(self) -> np.ndarray:
        """Mono float waveform of everything played, in play order."""
        pieces = []
        for _, data, is_silence, params in self.records:
            if is_silence:
                pieces.append(np.zeros(params.frames_of(len(data))))
            else:
                pieces.append(decode_samples(data, params).mean(axis=1))
        if not pieces:
            return np.zeros(0)
        return np.concatenate(pieces)

    def time_at_bytes(self, offset: int) -> Optional[float]:
        """The DAC time at which the ``offset``-th PCM byte was emitted.

        Counts only non-silence bytes, so the mapping from stream bytes to
        emission times survives underruns.  Returns None for bytes never
        played.
        """
        seen = 0
        for time, data, is_silence, params in self.records:
            if is_silence:
                continue
            if seen + len(data) > offset:
                return time + params.duration_of(offset - seen)
            seen += len(data)
        return None


class HardwareAudioDriver(LowLevelAudioDriver):
    """A simulated sound card: DMA at exactly the sample rate.

    This is the "inherent rate limiting" of §3.1: one block leaves the ring
    every ``blocksize / bytes_per_second`` seconds, no faster.  Each
    completed transfer costs one interrupt service on the host CPU.
    """

    def __init__(self, machine, sink: Optional[SpeakerSink] = None,
                 drift_ppm: float = 0.0):
        self.machine = machine
        self.sink = sink or SpeakerSink()
        #: crystal tolerance: the DAC consumes samples at
        #: nominal_rate / (1 + drift_ppm*1e-6).  §3.2's "slight phase
        #: differences ... when two ESs have different hardware
        #: configurations" in one number (audio crystals are ±50-100 ppm).
        self.drift_ppm = drift_ppm
        self._running = False
        self._halt_requested = False
        self.blocks_played = 0

    def set_params(self, params: AudioParams) -> None:
        pass  # geometry is recomputed by the high-level driver

    def trigger_output(self, device: AudioDevice) -> None:
        # a restart while the tick chain is still winding down just
        # cancels the pending halt
        self._halt_requested = False
        if self._running:
            return
        self._running = True
        self._tick(device)

    def halt_output(self) -> None:
        self._halt_requested = True

    def _tick(self, device: AudioDevice) -> None:
        if self._halt_requested:
            self._running = False
            return
        block = device.consume_block()
        if block is None:
            self._running = False
            return
        data, is_silence = block
        self.sink.record(self.machine.sim.now, data, is_silence, device.params)
        self.blocks_played += 1
        # completion interrupt: charge ISR cycles in interrupt context
        self.machine.cpu.charge(self.machine.intr_cycles, domain="intr")
        duration = device.params.duration_of(len(data))
        duration *= 1.0 + self.drift_ppm * 1e-6
        self.machine.sim.schedule(duration, self._tick, device)
