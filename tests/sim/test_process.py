"""Processes: spawning, sleeping, composition, kill, timeouts."""

import gc
import random

import pytest

from repro.sim import (
    Process,
    ProcessKilled,
    Simulator,
    Sleep,
    Timeout,
    WaitProcess,
)
from repro.sim.resources import Queue, QueueClosed


def spawn(sim, gen, name="p"):
    return Process.spawn(sim, gen, name)


def test_process_runs_and_records_result():
    sim = Simulator()

    def body():
        yield Sleep(1.0)
        return 42

    p = spawn(sim, body())
    sim.run()
    assert not p.alive
    assert p.result == 42


def test_sleep_advances_virtual_time():
    sim = Simulator()
    times = []

    def body():
        times.append(sim.now)
        yield Sleep(2.5)
        times.append(sim.now)
        yield Sleep(0.5)
        times.append(sim.now)

    spawn(sim, body())
    sim.run()
    assert times == [0.0, 2.5, 3.0]


def test_zero_sleep_yields_control():
    sim = Simulator()
    order = []

    def a():
        order.append("a1")
        yield Sleep(0)
        order.append("a2")

    def b():
        order.append("b1")
        yield Sleep(0)
        order.append("b2")

    spawn(sim, a())
    spawn(sim, b())
    sim.run()
    assert order == ["a1", "b1", "a2", "b2"]


def test_yield_from_composes_subroutines():
    sim = Simulator()

    def helper(x):
        yield Sleep(1.0)
        return x * 2

    def body():
        v = yield from helper(21)
        return v

    p = spawn(sim, body())
    sim.run()
    assert p.result == 42


def test_wait_process_returns_result():
    sim = Simulator()

    def child():
        yield Sleep(3.0)
        return "done"

    def parent():
        c = spawn(sim, child(), "child")
        v = yield WaitProcess(c)
        return (v, sim.now)

    p = spawn(sim, parent(), "parent")
    sim.run()
    assert p.result == ("done", 3.0)


def test_wait_on_already_finished_process():
    sim = Simulator()

    def child():
        return "early"
        yield  # pragma: no cover

    c = spawn(sim, child())
    sim.run()

    def parent():
        v = yield WaitProcess(c)
        return v

    p = spawn(sim, parent())
    sim.run()
    assert p.result == "early"


def test_child_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield Sleep(1.0)
        raise ValueError("boom")

    def parent():
        c = spawn(sim, child())
        try:
            yield WaitProcess(c)
        except ValueError as err:
            return f"caught {err}"

    p = spawn(sim, parent())
    sim.run()
    assert p.result == "caught boom"


def test_unwaited_exception_surfaces_in_run():
    sim = Simulator()

    def body():
        yield Sleep(1.0)
        raise RuntimeError("unobserved")

    spawn(sim, body())
    with pytest.raises(RuntimeError, match="unobserved"):
        sim.run()


def test_kill_interrupts_sleep_and_runs_finally():
    sim = Simulator()
    cleanup = []

    def body():
        try:
            yield Sleep(100.0)
        finally:
            cleanup.append(sim.now)

    p = spawn(sim, body())
    sim.schedule(5.0, p.kill)
    sim.run()
    assert not p.alive
    assert cleanup == [5.0]
    assert p.exception is None


def test_kill_before_first_step():
    sim = Simulator()

    def body():
        yield Sleep(1.0)
        return "should not get here"

    p = spawn(sim, body())
    p.kill()
    sim.run()
    assert not p.alive
    assert p.result is None


def test_kill_is_catchable():
    sim = Simulator()

    def body():
        try:
            yield Sleep(100.0)
        except ProcessKilled:
            return "survived"

    p = spawn(sim, body())
    sim.schedule(1.0, p.kill)
    sim.run()
    assert p.result == "survived"


def test_collected_process_finishes_without_waking_itself():
    # The process and its queue reference only each other, so the
    # collector finalises the generator; its ``finally`` closes the queue,
    # which wakes the dying process.  That wake must schedule nothing.
    sim = Simulator()
    closed = []

    def body(q):
        try:
            yield q.get()
        finally:
            q.close()
            closed.append(sim.now)

    spawn(sim, body(Queue()))
    sim.run(until=1.0)
    assert sim.pending() == 0
    gc.collect()
    assert closed == [1.0]
    assert sim.pending() == 0
    sim.run(until=2.0)
    assert sim.now == 2.0


@pytest.mark.parametrize("seed", range(5))
def test_collected_process_does_not_wake_another_unreachable_one(seed):
    # Unreachable processes blocked on one queue that only they reference;
    # one closes it in its ``finally``.  When the collector finalises
    # them, that close throws into the others' waits: none may be
    # scheduled, since all of them are garbage.
    rng = random.Random(seed)
    sim = Simulator()
    closed = []

    def getter(q):
        yield q.get()

    def closer(q):
        try:
            yield q.get()
        finally:
            q.close()
            closed.append(sim.now)

    q = Queue()
    bodies = [getter] * rng.randint(1, 4)
    bodies.insert(rng.randint(0, len(bodies)), closer)
    for body in bodies:
        spawn(sim, body(q))
    del q
    sim.run(until=1.0)
    assert sim.pending() == 0
    gc.collect()
    assert closed == [1.0]
    assert sim.pending() == 0
    sim.run(until=2.0)
    assert sim.now == 2.0 and not sim.unhandled


def test_collected_process_still_wakes_a_live_one():
    # The same close, but the other waiter is reachable: it is woken
    # once the collection ends, and sees the queue closed.
    sim = Simulator()
    q = Queue()

    def closer(dying):
        try:
            yield dying.get()
        finally:
            q.close()

    def waiter():
        try:
            yield q.get()
        except QueueClosed:
            return ("closed", sim.now)

    live = spawn(sim, waiter())
    spawn(sim, closer(Queue()))
    sim.run(until=1.0)
    gc.collect()
    assert sim.pending() == 1
    sim.run(until=2.0)
    assert live.result == ("closed", 1.0)


def test_timeout_fires_on_slow_wait():
    sim = Simulator()
    q = Queue()

    def body():
        try:
            yield Timeout(q.get(), 2.0)
        except TimeoutError:
            return ("timeout", sim.now)

    p = spawn(sim, body())
    sim.run()
    assert p.result == ("timeout", 2.0)


def test_timeout_does_not_fire_on_fast_wait():
    sim = Simulator()
    q = Queue()

    def producer():
        yield Sleep(0.5)
        yield q.put("item")

    def body():
        v = yield Timeout(q.get(), 2.0)
        return (v, sim.now)

    spawn(sim, producer())
    p = spawn(sim, body())
    sim.run()
    assert p.result == ("item", 0.5)
    assert sim.pending() == 0  # the timeout timer was cancelled


def test_yielding_non_waitable_is_an_error():
    sim = Simulator()

    def body():
        yield 42

    spawn(sim, body())
    with pytest.raises(Exception, match="expected a Waitable"):
        sim.run()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_sleep_and_timeout_reject_bad_durations(bad):
    from repro.sim import SimError

    with pytest.raises(SimError):
        Sleep(bad)
    with pytest.raises(SimError):
        Timeout(Queue().get(), bad)
