"""Event loop and virtual clock.

The :class:`Simulator` owns a priority queue of timed events.  Nothing in the
repository reads the host's wall clock: every duration — a DMA block transfer,
a context switch, a packet serialisation delay, an Ogg-style encode — is
expressed as virtual seconds scheduled here.  That determinism is what lets
the timing-sensitive experiments of the paper (synchronisation skew, buffer
sizing on a 233 MHz CPU) reproduce bit-for-bit on any machine.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class SimError(Exception):
    """Raised for misuse of the simulation core."""


#: bucket bounds for queue-depth/cascade histograms (kept here so the
#: event loop never has to import the metrics package)
_DEPTH_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)


class Event:
    """A cancellation handle, returned by :meth:`Simulator.schedule`.

    The queue itself holds plain ``(time, seq, fn, args, handle)`` tuples.
    ``seq`` breaks ties between entries for the same instant, preserving
    FIFO order of scheduling, and is unique, so no comparison ever reaches
    ``fn``.  Fire-and-forget entries carry ``None`` as their handle.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False


_INF = float("inf")


class Simulator:
    """Discrete-event scheduler with a virtual clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, print, "hello at t=1.5")
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple] = []
        #: events executed so far (plain int so benchmarks can compute
        #: events/sec with telemetry disabled; telemetry reads it as
        #: ``sim.events``)
        self.events_executed = 0
        #: exceptions that escaped processes nobody was waiting on;
        #: re-raised at the end of :meth:`run` so tests cannot miss them.
        self.unhandled: list[BaseException] = []
        #: attached :class:`repro.metrics.telemetry.Telemetry`, or None.
        #: Duck-typed on purpose: the metrics package imports the kernel
        #: (vmstat), so the event loop must not import metrics.
        self.telemetry = None
        self._batch_events = 0

    def set_telemetry(self, telemetry) -> None:
        """Attach a telemetry registry; pass ``None`` (or a disabled
        registry) to return the loop to its uninstrumented fast path."""
        if telemetry is not None and not telemetry.enabled:
            telemetry = None
        if telemetry is not None:
            telemetry.register("sim", None, self,
                               {"events": "events_executed"})
        self.telemetry = telemetry
        self._batch_events = 0

    def _record_step(self, time: float) -> None:
        """Event-loop health: queue depth every 64th event, and the depth
        of zero-delay cascades (events piling up at one instant — the
        sim-world analogue of scheduling lag).  Runs after
        ``events_executed`` counted the event at ``time``, before the
        clock moves."""
        tel = self.telemetry
        if time == self._now and self._batch_events:
            self._batch_events += 1
        else:
            if self._batch_events > 1:
                tel.observe("sim.zero_delay_cascade", self._batch_events,
                            bounds=_DEPTH_BOUNDS)
            self._batch_events = 1
        if self.events_executed % 64 == 0:
            tel.observe("sim.queue_depth", len(self._heap),
                        bounds=_DEPTH_BOUNDS)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def nothing_due_now(self) -> bool:
        """True when no queued entry is due now: a zero-delay entry
        scheduled now would run next, so it may as well run inline."""
        heap = self._heap
        return not heap or heap[0][0] > self._now

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            raise SimError(f"delay must be finite and >= 0: {delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual ``time``."""
        if not self._now <= time < _INF:
            raise SimError(f"cannot schedule at t={time} (now={self._now}):"
                           " times must be finite and not in the past")
        self._seq += 1
        ev = Event()
        heapq.heappush(self._heap, (time, self._seq, fn, args, ev))
        return ev

    def schedule_transient(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` with no cancellation handle.

        The hot-path variant of :meth:`schedule` for fire-and-forget work
        (packet deliveries, process wakeups, CPU slice completions): the
        queue entry is the only object made.
        """
        if not 0.0 <= delay < _INF:
            raise SimError(f"delay must be finite and >= 0: {delay}")
        self._seq += 1
        time = self._now + delay
        heapq.heappush(self._heap, (time, self._seq, fn, args, None))

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling twice is harmless."""
        event.cancelled = True

    def step(self) -> bool:
        """Run the single earliest pending event.

        Returns ``False`` when the queue is empty.
        """
        while self._heap:
            time, _, fn, args, handle = heapq.heappop(self._heap)
            if handle is not None and handle.cancelled:
                continue
            self.events_executed += 1
            if self.telemetry is not None:
                self._record_step(time)
            self._now = time
            fn(*args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so measurement windows have a
        well-defined length.  Re-raises the first unhandled process
        exception, if any.
        """
        heap = self._heap
        pop = heapq.heappop
        limit = _INF if until is None else until
        while heap:
            time, seq, fn, args, handle = pop(heap)
            if handle is not None and handle.cancelled:
                continue
            if time > limit:
                heapq.heappush(heap, (time, seq, fn, args, handle))
                break
            self.events_executed += 1
            if self.telemetry is not None:
                self._record_step(time)
            self._now = time
            fn(*args)
            if self.unhandled:
                raise self.unhandled[0]
        if until is not None and until > self._now:
            self._now = until
        if self.unhandled:
            raise self.unhandled[0]
        return self._now

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for entry in self._heap
                   if entry[4] is None or not entry[4].cancelled)
