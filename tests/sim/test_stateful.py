"""Hypothesis stateful testing of the simulation primitives.

The queues and the event loop carry the entire system; model-based tests
shake out ordering bugs that example-based tests miss.
"""

import itertools
import math
from collections import deque

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.sim import Process, Queue, Simulator, Sleep

#: zero often, so entries pile up at one instant
DELAYS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0))


class QueueModel(RuleBasedStateMachine):
    """Drive a sim Queue against a plain deque model.

    Producers/consumers run as simulation processes; after every rule the
    sim is drained and the observable state must match the model.
    """

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.capacity = 4
        self.queue = Queue(capacity=self.capacity, name="model")
        self.model: deque = deque()
        self.consumed = []
        self.expected_consumed = []
        self._counter = 0

    @rule()
    def put_nowait(self):
        self._counter += 1
        item = self._counter
        accepted = self.queue.put_nowait(item)
        if len(self.model) < self.capacity:
            assert accepted
            self.model.append(item)
        else:
            assert not accepted

    @rule()
    def get_nowait(self):
        if self.model:
            assert self.queue.get_nowait() == self.model.popleft()
        else:
            try:
                self.queue.get_nowait()
                raise AssertionError("expected IndexError")
            except IndexError:
                pass

    @rule(n=st.integers(min_value=1, max_value=3))
    def blocking_consumer_then_producer(self, n):
        """n consumers block, then n items arrive: FIFO handoff."""
        got = []

        def consumer():
            item = yield self.queue.get()
            got.append(item)

        for _ in range(n):
            Process.spawn(self.sim, consumer(), "c")
        self.sim.run()
        # consumers may have eaten the backlog first
        from_backlog = []
        while self.model and len(from_backlog) < n:
            from_backlog.append(self.model.popleft())
        still_waiting = n - len(from_backlog)
        produced = []
        for _ in range(still_waiting):
            self._counter += 1
            produced.append(self._counter)
            assert self.queue.put_nowait(self._counter)
        self.sim.run()
        assert got == from_backlog + produced

    @invariant()
    def same_length(self):
        assert len(self.queue) == len(self.model)

    @invariant()
    def same_content(self):
        assert list(self.queue._items) == list(self.model)


TestQueueModel = QueueModel.TestCase
TestQueueModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


class ClockModel(RuleBasedStateMachine):
    """Events fire on time and in (time, call order): the order of a
    plain model that sorts every entry it was told about.

    Entries are cancellable (``schedule``) or transient
    (``schedule_transient``), at zero or positive delay, and a callback
    may queue zero-delay follow-ons, which may queue their own.  Those
    land in the loop's now-FIFO, inside ``run()``/``step()`` or, when
    scheduled between runs, outside them.  ``step()`` and
    ``run(until)`` interleave, ``until`` sometimes in the past.
    """

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.calls = itertools.count()
        #: call number -> due time, for every entry not yet fired
        self.model = {}
        #: call number -> handle, for cancellable entries not yet fired
        self.handles = {}
        #: nothing due later may fire (``run(until)``'s bound)
        self.limit = math.inf

    def _add(self, delay, transient, depth):
        n = next(self.calls)
        self.model[n] = self.sim.now + delay
        if transient:
            self.sim.schedule_transient(delay, self._fire, n, depth)
        else:
            self.handles[n] = self.sim.schedule(delay, self._fire, n, depth)

    def _fire(self, n, depth):
        due = self.model.pop(n)
        self.handles.pop(n, None)
        assert self.sim.now == due <= self.limit
        assert all((due, n) < (d, m) for m, d in self.model.items())
        for _ in range(depth):
            self._add(0.0, True, depth - 1)

    @rule(delay=DELAYS, transient=st.booleans(),
          depth=st.integers(min_value=0, max_value=2))
    def schedule(self, delay, transient, depth):
        self._add(delay, transient, depth)

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def cancel(self, data):
        n = data.draw(st.sampled_from(sorted(self.handles)))
        self.sim.cancel(self.handles.pop(n))
        del self.model[n]

    @rule()
    def run_some(self):
        for _ in range(5):
            had = bool(self.model)
            assert self.sim.step() == had
            if not had:
                break

    @rule(horizon=st.floats(min_value=-1.0, max_value=50.0))
    def run_until(self, horizon):
        start = self.sim.now
        self.limit = until = start + horizon
        try:
            self.sim.run(until=until)
        finally:
            self.limit = math.inf
        assert self.sim.now == max(start, until)
        assert all(due > until for due in self.model.values())

    @invariant()
    def pending_matches_the_model(self):
        assert self.sim.pending() == len(self.model)


TestClockModel = ClockModel.TestCase
TestClockModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
