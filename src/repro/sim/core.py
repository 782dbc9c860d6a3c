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
from collections import deque
from typing import Any, Callable, Optional


class SimError(Exception):
    """Raised for misuse of the simulation core."""


#: bucket bounds for queue-depth/cascade histograms (kept here so the
#: event loop never has to import the metrics package)
_DEPTH_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)


class Event:
    """A cancellation handle, returned by :meth:`Simulator.schedule`.

    The heap itself holds plain ``(time, seq, fn, args, handle)`` tuples.
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
        #: ``(seq, fn, args)`` of the zero-delay transients due now, in
        #: seq order: see :meth:`schedule_transient`
        self._fifo: deque = deque()

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

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        time = self._now + delay
        if not (0.0 <= delay and time < _INF):
            raise SimError(f"delay must be finite and >= 0: {delay}")
        self._seq += 1
        ev = Event()
        heapq.heappush(self._heap, (time, self._seq, fn, args, ev))
        return ev

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

        A zero-delay entry is due now, so it goes to the back of the
        now-FIFO instead of the heap.  The loop runs the FIFO's head
        unless a heap entry due now has a smaller seq, and moves the
        clock only once the FIFO is empty.
        """
        if delay == 0.0:
            self._seq = seq = self._seq + 1
            self._fifo.append((seq, fn, args))
            return
        if not 0.0 < delay < _INF:
            raise SimError(f"delay must be finite and >= 0: {delay}")
        self._seq += 1
        heapq.heappush(self._heap,
                       (self._now + delay, self._seq, fn, args, None))

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling twice is harmless."""
        event.cancelled = True

    def _fifo_first(self) -> bool:
        """Whether the FIFO's head is the entry that runs next: the FIFO
        is not empty, and no heap entry due now has a smaller seq."""
        fifo, heap = self._fifo, self._heap
        return bool(fifo) and not (heap and heap[0][0] == self._now
                                   and heap[0][1] < fifo[0][0])

    def step(self) -> bool:
        """Run the earliest pending heap event, then the FIFO entries
        that run before the next heap entry.  FIFO entries made outside
        the loop (a spawn at set-up) that run before every heap entry
        take the heap event's place.

        Returns ``False`` when nothing is pending.  Re-raises the first
        unhandled process exception, as :meth:`run` does.
        """
        heap, fifo, unhandled = self._heap, self._fifo, self.unhandled
        ran = False
        while heap and not self._fifo_first():
            time, _, fn, args, handle = heapq.heappop(heap)
            if handle is not None and handle.cancelled:
                continue
            self.events_executed += 1
            if self.telemetry is not None:
                self._record_step(time)
            self._now = time
            fn(*args)
            ran = True
            break
        while not unhandled and self._fifo_first():
            _, fn, args = fifo.popleft()
            fn(*args)
            ran = True
        if unhandled:
            raise unhandled[0]
        return ran

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so measurement windows have a
        well-defined length.  Re-raises the first unhandled process
        exception, if any.
        """
        heap = self._heap
        fifo = self._fifo
        pop = heapq.heappop
        popleft = fifo.popleft
        unhandled = self.unhandled
        limit = _INF if until is None else until
        now = self._now
        while now <= limit:
            # the FIFO's entries, until a heap entry due now comes first
            while fifo and (not heap or heap[0][0] != now
                            or heap[0][1] > fifo[0][0]):
                _, fn, args = popleft()
                fn(*args)
                if unhandled:
                    raise unhandled[0]
            if not heap:
                break
            time, seq, fn, args, handle = pop(heap)
            if handle is not None and handle.cancelled:
                continue
            if time > limit:
                heapq.heappush(heap, (time, seq, fn, args, handle))
                break
            self.events_executed += 1
            if self.telemetry is not None:
                self._record_step(time)
            self._now = now = time
            fn(*args)
            if unhandled:
                raise unhandled[0]
        if until is not None and until > self._now:
            self._now = until
        if unhandled:
            raise unhandled[0]
        return self._now

    def pending(self) -> int:
        """Number of not-yet-cancelled entries, the FIFO's included."""
        return len(self._fifo) + sum(
            1 for entry in self._heap
            if entry[4] is None or not entry[4].cancelled)
