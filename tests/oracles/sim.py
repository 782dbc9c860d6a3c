"""Every scheduling hop queued: the simulator before its now-FIFO.

The runtime skips two kinds of zero-delay queue entries.  A zero-delay
``schedule_transient`` goes to ``Simulator``'s now-FIFO and runs before
the clock moves, in seq order with the heap entries due now, instead of
being pushed and popped as its own event.  And a finished CPU job
queues at most one entry: a job whose process is alive queues one entry
that steps the process and then dispatches, and any other job queues
the dispatch only when the run queue holds work.

:class:`HopOracle` puts the old behaviour back: no FIFO, and every
finished job queues its process's wake hop and then a
``CPU._post_completion`` dispatch, two adjacent entries.  It counts, as
``removable``, each zero-delay transient and each dispatch the runtime
merges or skips, so a differential test can require, for the same
program::

    oracle_sim.events_executed == runtime_sim.events_executed + removable

Install it with ``monkeypatch``; it then applies to every simulator::

    oracle = HopOracle()
    oracle.install(monkeypatch)
"""

import heapq
import math
import weakref

from repro.sim.core import SimError, Simulator
from repro.sim.cpu import CPU


class HopOracle:
    def __init__(self):
        #: queued entries the runtime would not have queued
        self.removable = 0
        #: simulators made while installed.  Only theirs count: a
        #: process generator finalised by the garbage collector during
        #: a run (``finally: sock.close()``) can queue a wake on the
        #: unreachable simulator of an earlier run.
        self._sims = weakref.WeakSet()

    def _push(self, sim, delay, fn, args) -> None:
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now + delay, sim._seq, fn, args,
                                   None))

    def schedule_transient(self, sim, delay, fn, *args) -> None:
        if not 0.0 <= delay < math.inf:
            raise SimError(f"delay must be finite and >= 0: {delay}")
        if delay == 0.0 and sim in self._sims:
            self.removable += 1
        self._push(sim, delay, fn, args)

    def _extra_post(self, cpu, merged: bool) -> None:
        if not merged:
            # the claim that lets the runtime skip it: nothing to do
            assert (cpu._current is not None or cpu.halted
                    or not cpu._run_queue)
        cpu._post_completion()

    def _slice_done(self, cpu, job, slice_cycles: float) -> None:
        cpu.stats.domain_seconds[job.domain] += slice_cycles / cpu.freq_hz
        cpu._continuous += slice_cycles / cpu.freq_hz
        cpu._last_busy_end = cpu.sim.now
        job.remaining -= slice_cycles
        job.running = False
        cpu._current = None
        if job.remaining > 1e-9:
            cpu._run_queue.append(job)
            cpu._dispatch()
            return
        cpu.stats.jobs_completed += 1
        proc = job.proc
        merged = proc is not None and proc.alive
        if proc is not None:
            proc._resume(None)
        if merged or not cpu._run_queue:
            self.removable += 1
            self._push(cpu.sim, 0.0, self._extra_post, (cpu, merged))
        else:
            cpu.sim.schedule_transient(0.0, cpu._post_completion)

    def install(self, monkeypatch) -> "HopOracle":
        init = Simulator.__init__

        def tracked_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            self._sims.add(sim)

        monkeypatch.setattr(Simulator, "__init__", tracked_init)
        monkeypatch.setattr(
            Simulator, "schedule_transient",
            lambda sim, *args: self.schedule_transient(sim, *args))
        monkeypatch.setattr(CPU, "_slice_done",
                            lambda cpu, *args: self._slice_done(cpu, *args))
        return self
