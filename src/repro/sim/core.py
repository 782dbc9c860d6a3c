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
    """A scheduled callback.

    Returned by :meth:`Simulator.schedule` so callers can cancel it.  The
    ``seq`` field breaks ties between events scheduled for the same instant,
    preserving FIFO order of scheduling.  The queue orders
    ``(time, seq, event)`` tuples, so no comparison ever reaches Python
    code (``seq`` is unique: the event itself is never compared).

    ``transient`` marks an event scheduled through
    :meth:`Simulator.schedule_transient`: no handle was handed out, so it
    can never be cancelled, and the simulator recycles the object through a
    free list after it fires.  Events with visible handles are never
    recycled — a caller may legitimately hold one and cancel it long after
    it ran.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "transient")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.transient = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Discrete-event scheduler with a virtual clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, print, "hello at t=1.5")
        sim.run(until=10.0)
    """

    #: free-list bound: enough to absorb the steady-state churn of a large
    #: fan-out without pinning memory after a burst
    MAX_FREE_EVENTS = 4096

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Event]] = []
        #: recycled transient Event objects (allocation free-list)
        self._free: list[Event] = []
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

    def _record_step(self, ev: Event) -> None:
        """Event-loop health: queue depth every 64th event, and the depth
        of zero-delay cascades (events piling up at one instant — the
        sim-world analogue of scheduling lag).  Runs after
        ``events_executed`` counted ``ev`` but before the clock moves."""
        tel = self.telemetry
        if ev.time == self._now and self._batch_events:
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
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        self._seq += 1
        ev = Event(time, self._seq, fn, args)
        heapq.heappush(self._heap, (time, self._seq, ev))
        return ev

    def schedule_transient(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` with no cancellation handle.

        The hot-path variant of :meth:`schedule` for fire-and-forget work
        (packet deliveries, process wakeups, CPU slice completions): since
        no handle escapes, the Event object is drawn from — and returned
        to — a bounded free list, cutting per-event allocation churn.
        """
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        time = self._now + delay
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = self._seq
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
        else:
            ev = Event(time, self._seq, fn, args)
            ev.transient = True
        heapq.heappush(self._heap, (time, self._seq, ev))

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling twice is harmless."""
        event.cancelled = True

    def step(self) -> bool:
        """Run the single earliest pending event.

        Returns ``False`` when the queue is empty.
        """
        while self._heap:
            ev = heapq.heappop(self._heap)[2]
            if ev.cancelled:
                continue
            self.events_executed += 1
            if self.telemetry is not None:
                self._record_step(ev)
            self._now = ev.time
            ev.fn(*ev.args)
            if ev.transient and len(self._free) < self.MAX_FREE_EVENTS:
                ev.fn = None
                ev.args = ()
                self._free.append(ev)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so measurement windows have a
        well-defined length.  Re-raises the first unhandled process
        exception, if any.
        """
        while self._heap:
            time, _, nxt = self._heap[0]
            if nxt.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and time > until:
                break
            self.step()
            if self.unhandled:
                raise self.unhandled[0]
        if until is not None and until > self._now:
            self._now = until
        if self.unhandled:
            raise self.unhandled[0]
        return self._now

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)
