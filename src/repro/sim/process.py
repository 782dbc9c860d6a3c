"""Generator-based cooperative processes.

A process body is a Python generator that yields *waitables*:

    def body(sim):
        yield Sleep(0.5)
        item = yield queue.get()
        yield cpu.run(cycles=100_000)

``yield from`` composes naturally, so kernel syscalls are plain generator
functions that processes delegate to.  A waitable implements ``_arm(proc)``
(begin waiting) and optionally ``_disarm(proc)`` (abort the wait, used by
:class:`Timeout` and :meth:`Process.kill`).
"""

from __future__ import annotations

import gc
import math
import weakref
from typing import Any, Generator, Optional

from repro.sim.core import SimError, Simulator

#: the process currently executing a step, if any (for diagnostics)
_current: Optional["Process"] = None

#: wake-ups made while the garbage collector runs, as (weak process,
#: value, exc); ``None`` outside a collection.  Only finalisers run then,
#: and a finaliser's wake-up (an unreachable process's ``finally`` closing
#: a queue) may target a process that is garbage too: scheduling it would
#: bring it back.  So the wake-up waits for the collection to end, and
#: runs only if its process survived it.
_gc_wakes: Optional[list] = None


def _on_gc(phase: str, info: dict) -> None:
    global _gc_wakes
    if phase == "start":
        _gc_wakes = []
        return
    wakes, _gc_wakes = _gc_wakes, None
    for ref, value, exc in wakes or ():
        proc = ref()
        if proc is not None:
            proc._resume(value, exc)


gc.callbacks.append(_on_gc)


def current_process() -> Optional["Process"]:
    """The process whose generator is currently executing, or ``None``."""
    return _current


class ProcessKilled(Exception):
    """Thrown into a process generator by :meth:`Process.kill`."""


class Waitable:
    """Base class for things a process may ``yield``."""

    def _arm(self, proc: "Process") -> None:
        raise NotImplementedError

    def _disarm(self, proc: "Process") -> bool:
        """Abort the wait.  Returns ``True`` if successfully disarmed."""
        return False


class Sleep(Waitable):
    """Suspend the process for ``duration`` virtual seconds."""

    def __init__(self, duration: float):
        if not 0.0 <= duration < math.inf:
            raise SimError(f"sleep must be finite and >= 0: {duration}")
        self.duration = duration
        self._event = None

    def _arm(self, proc: "Process") -> None:
        self._event = proc.sim.schedule(self.duration, proc._resume, None)

    def _disarm(self, proc: "Process") -> bool:
        if self._event is not None:
            proc.sim.cancel(self._event)
            self._event = None
        return True


class WaitProcess(Waitable):
    """Wait for another process to finish; yields its return value.

    If the awaited process died with an exception, that exception is
    re-raised in the waiter.
    """

    def __init__(self, target: "Process"):
        self.target = target

    def _arm(self, proc: "Process") -> None:
        self.target._add_waiter(proc)

    def _disarm(self, proc: "Process") -> bool:
        self.target._remove_waiter(proc)
        return True


class Timeout(Waitable):
    """Wrap another waitable with a deadline.

    Raises :class:`TimeoutError` in the waiting process if the inner
    waitable does not complete within ``duration`` seconds.  The inner
    waitable must support ``_disarm``.
    """

    def __init__(self, inner: Waitable, duration: float):
        if not 0.0 <= duration < math.inf:
            raise SimError(f"timeout must be finite and >= 0: {duration}")
        self.inner = inner
        self.duration = duration
        self._event = None
        self._proc: Optional[Process] = None

    def _arm(self, proc: "Process") -> None:
        self._proc = proc
        self._event = proc.sim.schedule(self.duration, self._expire)
        proc._timeout_guard = self
        self.inner._arm(proc)

    def _expire(self) -> None:
        proc = self._proc
        if proc is None or not proc.alive:
            return
        if not self.inner._disarm(proc):
            raise SimError(
                f"{self.inner!r} does not support timeouts (_disarm failed)"
            )
        proc._timeout_guard = None
        proc._resume(None, TimeoutError(f"timed out after {self.duration}s"))

    def _cancel_timer(self) -> None:
        if self._event is not None:
            self._proc.sim.cancel(self._event)
            self._event = None

    def _disarm(self, proc: "Process") -> bool:
        self._cancel_timer()
        return self.inner._disarm(proc)


class Process:
    """A running simulation process.

    Created via :meth:`Process.spawn` (or the kernel's higher-level
    wrappers).  The generator is stepped from the event loop; each step runs
    until the next ``yield`` of a waitable.
    """

    def __init__(self, sim: Simulator, gen: Generator, name: str = "proc"):
        self.sim = sim
        self.name = name
        self._gen = gen
        self.alive = True
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._waiters: list[Process] = []
        self._kill_pending = False
        self._timeout_guard: Optional[Timeout] = None
        self._current_wait: Optional[Waitable] = None
        self.frozen = False
        self._frozen_step: Optional[tuple] = None

    @classmethod
    def spawn(
        cls, sim: Simulator, gen: Generator, name: str = "proc"
    ) -> "Process":
        """Create a process and schedule its first step for right now."""
        proc = cls(sim, gen, name)
        sim.schedule_transient(0.0, proc._step, None, None)
        return proc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"<Process {self.name} {state}>"

    # -- scheduling internals ------------------------------------------------

    def _resume(self, value: Any, exc: Optional[BaseException] = None):
        """Resume the generator with ``value`` (or by raising ``exc`` in
        it) at this instant, via a zero-delay hop through the loop's
        now-FIFO."""
        if not self.alive:
            return
        if _gc_wakes is not None:
            _gc_wakes.append((weakref.ref(self), value, exc))
            return
        self._clear_wait()
        self.sim.schedule_transient(0.0, self._step, value, exc)

    def _throw(self, exc: BaseException) -> None:
        """Resume the generator by raising ``exc`` inside it."""
        self._resume(None, exc)

    def _clear_wait(self) -> None:
        if self._timeout_guard is not None:
            self._timeout_guard._cancel_timer()
            self._timeout_guard = None
        self._current_wait = None

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        global _current
        if not self.alive:
            return
        if self.frozen:
            # Hung process: whatever woke it is parked until thaw().  Only
            # one wake-up can be outstanding (the generator had exactly one
            # armed waitable), so a single slot suffices.
            self._frozen_step = (value, exc)
            return
        if self._kill_pending:
            exc, value = ProcessKilled(), None
            self._kill_pending = False
        prev, _current = _current, self
        try:
            if exc is not None:
                waitable = self._gen.throw(exc)
            else:
                waitable = self._gen.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except ProcessKilled:
            self._finish(result=None)
            return
        except BaseException as err:
            self._finish(error=err)
            return
        finally:
            _current = prev
        if not isinstance(waitable, Waitable):
            self._finish(
                error=SimError(
                    f"process {self.name} yielded {waitable!r}, "
                    "expected a Waitable"
                )
            )
            return
        self._current_wait = waitable
        waitable._arm(self)

    def _finish(self, result: Any = None, error: Optional[BaseException] = None):
        self.alive = False
        self.result = result
        self.exception = error
        self._gen.close()
        waiters, self._waiters = self._waiters, []
        if error is not None and not waiters:
            self.sim.unhandled.append(error)
        for waiter in waiters:
            if error is not None:
                waiter._throw(error)
            else:
                waiter._resume(result)

    def _add_waiter(self, proc: "Process") -> None:
        if not self.alive:
            if self.exception is not None:
                proc._throw(self.exception)
            else:
                proc._resume(self.result)
            return
        self._waiters.append(proc)

    def _remove_waiter(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)

    # -- public control ------------------------------------------------------

    def freeze(self) -> None:
        """Hang the process: it stops consuming CPU and servicing timers.

        The generator is never stepped while frozen — timers and queue
        deliveries that would have resumed it are parked and land on
        :meth:`thaw`.  Unlike :meth:`kill` the generator stays alive, so
        this models a wedged-but-not-exited process (spinning on a lock,
        swapped out, stuck in a driver).
        """
        if self.alive:
            self.frozen = True

    def thaw(self) -> None:
        """Undo :meth:`freeze`; a parked wake-up is delivered immediately."""
        if not self.frozen:
            return
        self.frozen = False
        if self._frozen_step is not None:
            value, exc = self._frozen_step
            self._frozen_step = None
            self.sim.schedule_transient(0.0, self._step, value, exc)

    def kill(self) -> None:
        """Terminate the process at its current yield point.

        A :class:`ProcessKilled` is thrown into the generator so ``finally``
        blocks run.  If the process is waiting on something that cannot be
        disarmed (a CPU slice in flight), the kill lands when it resumes.
        Killing a frozen process works: the freeze is lifted so the kill
        can be delivered.
        """
        if not self.alive:
            return
        if self.frozen:
            self.frozen = False
            if self._frozen_step is not None:
                # a wake-up is already parked: replace it with the kill
                self._frozen_step = None
                self._resume(None, ProcessKilled())
                return
        wait = self._current_wait
        if wait is None:
            # Either never started or a step is already scheduled;
            # flag the kill so the next step raises.
            self._kill_pending = True
            return
        if wait._disarm(self):
            self._throw(ProcessKilled())
        else:
            self._kill_pending = True
