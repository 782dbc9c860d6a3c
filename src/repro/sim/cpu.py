"""Cycle-accounted CPU with a round-robin scheduler.

Processes charge work to a machine's CPU by yielding ``cpu.run(cycles)``.
The CPU serialises all such requests, preempting at a quantum boundary, and
counts **context switches** exactly the way ``vmstat`` observes them on the
paper's OpenBSD machines: one switch per transition to a different context,
including transitions to and from the idle loop.  Figure 5 of the paper is a
plot of this counter.

Speeds are configured in Hz, so the Neoware EON 4000's 233 MHz Geode and a
modern workstation are just different constructor arguments
(:mod:`repro.platform.hardware`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.core import SimError, Simulator
from repro.sim.process import Process, Waitable

#: sentinel owner for the idle loop
IDLE = "<idle>"


@dataclass
class CpuStats:
    """Monotone counters; samplers diff successive snapshots."""

    context_switches: int = 0
    domain_seconds: dict = field(
        default_factory=lambda: {"user": 0.0, "sys": 0.0, "intr": 0.0}
    )
    jobs_completed: int = 0

    @property
    def busy_seconds(self) -> float:
        return sum(self.domain_seconds.values())

    def snapshot(self) -> dict:
        return {
            "context_switches": self.context_switches,
            "user": self.domain_seconds["user"],
            "sys": self.domain_seconds["sys"],
            "intr": self.domain_seconds["intr"],
            "busy": self.busy_seconds,
            "jobs_completed": self.jobs_completed,
        }


class _CpuJob(Waitable):
    def __init__(self, cpu: "CPU", cycles: float, domain: str, owner):
        self.cpu = cpu
        self.cycles = float(cycles)
        self.remaining = float(cycles)
        self.domain = domain
        self.owner = owner
        self.proc: Optional[Process] = None
        self.running = False

    def _arm(self, proc: Process) -> None:
        self.proc = proc
        if self.owner is None:
            self.owner = proc
        self.cpu._submit(self)

    def _disarm(self, proc: Process) -> bool:
        if self.running:
            return False
        try:
            self.cpu._run_queue.remove(self)
        except ValueError:
            pass
        return True


class CPU:
    """A single simulated processor core.

    Parameters
    ----------
    freq_hz:
        clock frequency; ``run(cycles)`` takes ``cycles / freq_hz`` busy
        seconds (plus scheduling overheads).
    quantum:
        preemption quantum in seconds (OpenBSD's roundrobin is 100 Hz,
        i.e. 10 ms — the default).
    switch_cost:
        seconds of system time charged per context switch.
    """

    def __init__(
        self,
        sim: Simulator,
        freq_hz: float = 233e6,
        quantum: float = 0.010,
        switch_cost: float = 20e-6,
        name: str = "cpu0",
    ):
        if freq_hz <= 0:
            raise SimError("cpu frequency must be positive")
        self.sim = sim
        self.freq_hz = float(freq_hz)
        self.quantum = quantum
        self.switch_cost = switch_cost
        self.name = name
        self.stats = CpuStats()
        self._run_queue: deque[_CpuJob] = deque()
        self._current: Optional[_CpuJob] = None
        self._last_owner = IDLE
        self._continuous = 0.0  # time the current owner has held the CPU
        self._last_busy_end = 0.0  # when the CPU last finished a slice
        self._slice_end_at = 0.0  # when the slice in flight will complete
        self._halted = False

    # -- public API ------------------------------------------------------------

    def run(self, cycles: float, domain: str = "user", owner=None) -> _CpuJob:
        """Waitable: execute ``cycles`` of work in the given domain.

        ``domain`` is one of ``user``, ``sys``, ``intr`` and only affects
        accounting.  ``owner`` defaults to the yielding process; pass an
        explicit token to attribute work (e.g. an interrupt) to another
        context for switch counting.
        """
        if not 0.0 <= cycles < math.inf:
            raise SimError(f"cycle count must be finite and >= 0: {cycles}")
        if domain not in ("user", "sys", "intr"):
            raise SimError(f"unknown CPU domain: {domain}")
        return _CpuJob(self, cycles, domain, owner)

    def charge(
        self, cycles: float, domain: str = "intr", owner="intr"
    ) -> None:
        """Fire-and-forget CPU work with no waiting process.

        Used from event context for interrupt service routines: the cycles
        occupy the CPU (delaying runnable processes) and are accounted, but
        nothing resumes when they finish.
        """
        if cycles <= 0:
            return
        if not cycles < math.inf:
            raise SimError(f"non-finite cycle count: {cycles}")
        job = _CpuJob(self, cycles, domain, owner)
        self._submit(job)

    @property
    def busy(self) -> bool:
        return self._current is not None

    @property
    def queue_depth(self) -> int:
        return len(self._run_queue)

    @property
    def halted(self) -> bool:
        return self._halted

    def halt(self) -> None:
        """Stop dispatching: a hung node's CPU.

        The slice in flight finishes (its completion event is already
        scheduled), but nothing further runs — submitted jobs pile up in
        the run queue until :meth:`unhalt`.
        """
        self._halted = True

    def unhalt(self) -> None:
        """Resume dispatching after :meth:`halt`."""
        if not self._halted:
            return
        self._halted = False
        if self._current is None:
            self._dispatch()

    # -- scheduler internals -----------------------------------------------------

    def _submit(self, job: _CpuJob) -> None:
        self._run_queue.append(job)
        if self._current is None:
            self._dispatch()

    def _dispatch(self) -> None:
        if self._halted or not self._run_queue:
            return
        # Run-until-block semantics: the owner that just ran keeps the CPU
        # if it has more work queued, up to one quantum of continuous time.
        # Without this, two chatty processes would appear to context-switch
        # between every few-microsecond kernel operation, which no real
        # scheduler does.
        job = None
        if self._continuous < self.quantum:
            for candidate in self._run_queue:
                if candidate.owner is self._last_owner:
                    job = candidate
                    self._run_queue.remove(candidate)
                    break
        if job is None:
            job = self._run_queue.popleft()
        # Idle accounting is lazy: only when virtual time actually passed
        # with nothing running do we count the switch into the idle loop.
        # Zero-duration scheduling gaps (a process hopping through a few
        # events between two of its own kernel operations) are not real
        # context switches and would grossly inflate the Figure 5 counts.
        if (
            self._last_owner is not IDLE
            and self.sim.now > self._last_busy_end
        ):
            self.stats.context_switches += 1
            self._last_owner = IDLE
            self._continuous = 0.0
        overhead = 0.0
        if job.owner is not self._last_owner:
            self.stats.context_switches += 1
            self._last_owner = job.owner
            self._continuous = 0.0
            overhead = self.switch_cost
            self.stats.domain_seconds["sys"] += overhead
        self._current = job
        job.running = True
        quantum_cycles = self.quantum * self.freq_hz
        slice_cycles = min(quantum_cycles, job.remaining)
        slice_time = slice_cycles / self.freq_hz
        # Recorded so a cohort spill can replicate the slice in flight on
        # the clone's CPU: without it the clone would dispatch its next
        # job a slice early and drift off the per-object timeline.
        self._slice_end_at = self.sim.now + overhead + slice_time
        self.sim.schedule_transient(
            overhead + slice_time, self._slice_done, job, slice_cycles
        )

    def _slice_done(self, job: _CpuJob, slice_cycles: float) -> None:
        self.stats.domain_seconds[job.domain] += slice_cycles / self.freq_hz
        self._continuous += slice_cycles / self.freq_hz
        self._last_busy_end = self.sim.now
        job.remaining -= slice_cycles
        job.running = False
        self._current = None
        if job.remaining > 1e-9:
            self._run_queue.append(job)
            self._dispatch()
            return
        self.stats.jobs_completed += 1
        if self._run_queue and not self.sim.nothing_due_now():
            if job.proc is not None:
                job.proc._resume(None)
            # Defer the next dispatch one event so the woken process can
            # submit its follow-on work first (run-until-block).
            self.sim.schedule_transient(0.0, self._post_completion)
            return
        # Either the wake hop and that dispatch would run next, in this
        # order, or the run queue is empty and the dispatch would find
        # nothing to do: a job submitted before it ran would dispatch at
        # once or wait behind a busy or halted CPU.
        if job.proc is not None:
            job.proc._wake(None)
        self._post_completion()

    def _post_completion(self) -> None:
        if self._current is None and self._run_queue:
            self._dispatch()
