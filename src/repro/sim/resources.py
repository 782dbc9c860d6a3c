"""Inter-process coordination primitives: queues and signals."""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim.core import SimError
from repro.sim.process import Process, Waitable


class QueueClosed(Exception):
    """Raised by pending or future ``get``/``put`` after :meth:`Queue.close`."""


class _QueueGet(Waitable):
    def __init__(self, queue: "Queue"):
        self.queue = queue
        self.proc: Optional[Process] = None

    def _arm(self, proc: Process) -> None:
        self.proc = proc
        self.queue._arm_get(self)

    def _disarm(self, proc: Process) -> bool:
        return self.queue._disarm_get(self)


class _QueuePut(Waitable):
    def __init__(self, queue: "Queue", item: Any):
        self.queue = queue
        self.item = item
        self.proc: Optional[Process] = None

    def _arm(self, proc: Process) -> None:
        self.proc = proc
        self.queue._arm_put(self)

    def _disarm(self, proc: Process) -> bool:
        return self.queue._disarm_put(self)


class Queue:
    """FIFO queue with optional capacity, the workhorse of the simulation.

    ``capacity=None`` means unbounded (puts never block).  Closing the queue
    wakes blocked getters with :class:`QueueClosed` once the backlog drains.
    """

    def __init__(self, capacity: Optional[int] = None, name: str = "queue"):
        if capacity is not None and capacity < 1:
            raise SimError("queue capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()
        self._getters: deque[_QueueGet] = deque()
        self._putters: deque[_QueuePut] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def get(self) -> _QueueGet:
        """Waitable: the oldest item, blocking while empty."""
        return _QueueGet(self)

    def put(self, item: Any) -> _QueuePut:
        """Waitable: enqueue ``item``, blocking while full."""
        return _QueuePut(self, item)

    def get_nowait(self) -> Any:
        """Pop immediately; raises ``IndexError`` when empty."""
        if not self._items:
            if self._closed:
                raise QueueClosed(self.name)
            raise IndexError(f"{self.name} is empty")
        item = self._items.popleft()
        self._refill_from_putters()
        return item

    def put_nowait(self, item: Any) -> bool:
        """Enqueue immediately; returns ``False`` (drops) when full."""
        if self._closed:
            raise QueueClosed(self.name)
        if self._getters:
            getter = self._getters.popleft()
            getter.proc._resume(item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        return True

    def close(self) -> None:
        """No more puts; getters drain the backlog then see QueueClosed."""
        self._closed = True
        if not self._items:
            while self._getters:
                self._getters.popleft().proc._throw(QueueClosed(self.name))
        while self._putters:
            self._putters.popleft().proc._throw(QueueClosed(self.name))

    # -- waitable plumbing ----------------------------------------------------

    def _arm_get(self, w: _QueueGet) -> None:
        if self._items:
            item = self._items.popleft()
            # wake the getter before backfilling blocked putters so the
            # reader's execution stays contiguous (it resumes first)
            w.proc._resume(item)
            self._refill_from_putters()
        elif self._closed:
            w.proc._throw(QueueClosed(self.name))
        else:
            self._getters.append(w)

    def _disarm_get(self, w: _QueueGet) -> bool:
        try:
            self._getters.remove(w)
        except ValueError:
            pass
        return True

    def _arm_put(self, w: _QueuePut) -> None:
        if self._closed:
            w.proc._throw(QueueClosed(self.name))
            return
        if self._getters:
            self._getters.popleft().proc._resume(w.item)
            w.proc._resume(None)
            return
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(w.item)
            w.proc._resume(None)
            return
        self._putters.append(w)

    def _disarm_put(self, w: _QueuePut) -> bool:
        try:
            self._putters.remove(w)
        except ValueError:
            pass
        return True

    def _refill_from_putters(self) -> None:
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            putter = self._putters.popleft()
            self._items.append(putter.item)
            putter.proc._resume(None)


class _SignalWait(Waitable):
    def __init__(self, signal: "Signal"):
        self.signal = signal
        self.proc: Optional[Process] = None

    def _arm(self, proc: Process) -> None:
        self.proc = proc
        self.signal._waiters.append(self)

    def _disarm(self, proc: Process) -> bool:
        try:
            self.signal._waiters.remove(self)
        except ValueError:
            pass
        return True


class Signal:
    """Broadcast condition: ``fire(value)`` wakes every current waiter."""

    def __init__(self, name: str = "signal"):
        self.name = name
        self._waiters: list[_SignalWait] = []

    def wait(self) -> _SignalWait:
        return _SignalWait(self)

    def fire(self, value: Any = None) -> int:
        """Wake all waiters with ``value``; returns how many woke."""
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            w.proc._resume(value)
        return len(waiters)
