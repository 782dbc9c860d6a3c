"""Every scheduling hop queued: the simulator before wakes ran inline.

The runtime skips four kinds of zero-delay queue entries.  A wake from a
timer or CPU-completion callback steps its process inline when nothing
else is due at that instant, instead of queueing a ``Process._step``
hop; so does a reader woken by a delivery scheduled as its own event
(``repro.net.segment.deliver_alone``), whose socket put is that event's
last action.  A finished CPU job queues no ``CPU._post_completion``
dispatch when the run queue is empty, and runs it inline when it would
run next.  When the instant is busy, it queues one entry that steps the
woken process and then dispatches, where the hop and the dispatch used
to be two adjacent entries.

:class:`HopOracle` puts the old behaviour back: every wake hops, every
completion queues its dispatch, and a busy completion queues the hop and
the dispatch separately.  It counts, as ``removable``, each entry the
runtime would not have queued, so a differential test can require, for
the same program::

    oracle_sim.events_executed == runtime_sim.events_executed + removable

Install it with ``monkeypatch``; it then applies to every simulator::

    oracle = HopOracle()
    oracle.install(monkeypatch)
"""

from repro.sim.cpu import CPU
from repro.sim.process import Process


class HopOracle:
    def __init__(self):
        #: queued entries the runtime would have skipped
        self.removable = 0
        #: skipped dispatches still in the queue
        self._posts = 0

    def nothing_due_now(self, sim) -> bool:
        """The runtime's predicate, evaluated on the oracle's queue.

        The oracle's queue holds what the runtime's does plus skipped
        entries.  A skipped hop always runs next, before any predicate
        is asked again.  A skipped dispatch can wait behind other
        entries due now (for an empty run queue) or behind its own hop
        (a busy completion's, which the runtime runs in the hop's
        entry); it does not count.
        """
        heap, now = sim._heap, sim.now
        if not heap or heap[0][0] > now:
            return True
        post = self._skipped_post
        return self._posts > 0 and all(
            entry[2] == post for entry in heap if entry[0] <= now
        )

    def _skipped_post(self, cpu, queued: bool) -> None:
        self._posts -= 1
        if not queued:
            # the claim that lets the runtime skip it: nothing to do
            assert (cpu._current is not None or cpu.halted
                    or not cpu._run_queue)
        cpu._post_completion()

    def _wake(self, proc, value, exc=None):
        if not proc.alive:
            return
        proc._clear_wait()
        self.removable += self.nothing_due_now(proc.sim)
        proc.sim.schedule_transient(0.0, proc._step, value, exc)

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
        queued = bool(cpu._run_queue)
        skip = not queued or self.nothing_due_now(cpu.sim)
        stepped = job.proc is not None and job.proc.alive
        if job.proc is not None:
            self._wake(job.proc, None)
        if skip or stepped:
            self.removable += 1
            self._posts += 1
            cpu.sim.schedule_transient(0.0, self._skipped_post, cpu, queued)
        else:
            cpu.sim.schedule_transient(0.0, cpu._post_completion)

    def install(self, monkeypatch) -> "HopOracle":
        monkeypatch.setattr(Process, "_wake",
                            lambda proc, *args: self._wake(proc, *args))
        monkeypatch.setattr(CPU, "_slice_done",
                            lambda cpu, *args: self._slice_done(cpu, *args))
        return self
