"""Queues, semaphores, signals."""

import pytest

from repro.sim import Process, Queue, QueueClosed, Signal, Simulator, Sleep


def spawn(sim, gen, name="p"):
    return Process.spawn(sim, gen, name)


# -- Queue ---------------------------------------------------------------------


def test_queue_fifo_order():
    sim = Simulator()
    q = Queue()
    got = []

    def producer():
        for i in range(5):
            yield q.put(i)

    def consumer():
        for _ in range(5):
            got.append((yield q.get()))

    spawn(sim, producer())
    spawn(sim, consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_get_blocks_until_put():
    sim = Simulator()
    q = Queue()

    def consumer():
        v = yield q.get()
        return (v, sim.now)

    def producer():
        yield Sleep(3.0)
        yield q.put("x")

    p = spawn(sim, consumer())
    spawn(sim, producer())
    sim.run()
    assert p.result == ("x", 3.0)


def test_bounded_put_blocks_until_space():
    sim = Simulator()
    q = Queue(capacity=1)
    timeline = []

    def producer():
        yield q.put("a")
        timeline.append(("put-a", sim.now))
        yield q.put("b")
        timeline.append(("put-b", sim.now))

    def consumer():
        yield Sleep(5.0)
        v = yield q.get()
        timeline.append((f"got-{v}", sim.now))

    spawn(sim, producer())
    spawn(sim, consumer())
    sim.run()
    assert ("put-a", 0.0) in timeline
    assert ("put-b", 5.0) in timeline  # blocked until the consumer drained


def test_put_nowait_drops_when_full():
    sim = Simulator()
    q = Queue(capacity=2)
    assert q.put_nowait(1)
    assert q.put_nowait(2)
    assert not q.put_nowait(3)
    assert len(q) == 2


def test_get_nowait():
    q = Queue()
    q.put_nowait("a")
    assert q.get_nowait() == "a"
    with pytest.raises(IndexError):
        q.get_nowait()


def test_close_wakes_blocked_getter():
    sim = Simulator()
    q = Queue()

    def consumer():
        try:
            yield q.get()
        except QueueClosed:
            return "closed"

    p = spawn(sim, consumer())
    sim.schedule(1.0, q.close)
    sim.run()
    assert p.result == "closed"


def test_close_lets_backlog_drain_first():
    sim = Simulator()
    q = Queue()
    q.put_nowait("last")
    q.close()

    def consumer():
        v = yield q.get()
        try:
            yield q.get()
        except QueueClosed:
            return v

    p = spawn(sim, consumer())
    sim.run()
    assert p.result == "last"


def test_multiple_getters_served_in_order():
    sim = Simulator()
    q = Queue()
    got = []

    def consumer(tag):
        v = yield q.get()
        got.append((tag, v))

    spawn(sim, consumer("first"))
    spawn(sim, consumer("second"))

    def producer():
        yield Sleep(1.0)
        yield q.put("a")
        yield q.put("b")

    spawn(sim, producer())
    sim.run()
    assert got == [("first", "a"), ("second", "b")]


# -- Signal ------------------------------------------------------------------------


def test_signal_broadcasts_to_all_waiters():
    sim = Simulator()
    sig = Signal()
    woke = []

    def waiter(tag):
        v = yield sig.wait()
        woke.append((tag, v, sim.now))

    spawn(sim, waiter(1))
    spawn(sim, waiter(2))
    sim.schedule(2.0, sig.fire, "go")
    sim.run()
    assert sorted(woke) == [(1, "go", 2.0), (2, "go", 2.0)]


def test_signal_fire_returns_waiter_count():
    sim = Simulator()
    sig = Signal()

    def waiter():
        yield sig.wait()

    spawn(sim, waiter())
    spawn(sim, waiter())
    counts = []
    sim.schedule(1.0, lambda: counts.append(sig.fire()))
    sim.run()
    assert counts == [2]
    assert sig.fire() == 0  # nobody waiting any more
