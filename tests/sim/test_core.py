"""Event loop: ordering, cancellation, clock semantics."""

import pytest

from repro.sim import Process, Simulator, SimError, Sleep


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(4.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.5]
    assert sim.now == 4.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0  # clock lands exactly on the window edge
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, fired.append, "y")
    sim.cancel(ev)
    sim.run()
    assert fired == ["y"]


def test_cancel_twice_is_harmless():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.cancel(ev)
    sim.cancel(ev)
    sim.run()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(SimError):
        sim.schedule_transient(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.schedule_at(1.0, lambda: None)


def test_events_scheduled_from_events_run():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(1.0, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 2.0


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_step_reraises_a_process_crash():
    """``step()`` surfaces an error no process waited for, as ``run()``
    does, on the step that ran it and on every later one."""
    sim = Simulator()

    def body():
        yield Sleep(1.0)
        raise ValueError("boom")

    Process.spawn(sim, body())
    sim.schedule(2.0, lambda: None)
    # the set-up spawn waits in the FIFO, ahead of every heap entry: the
    # first step runs it alone, and it arms the sleep
    assert sim.step() is True
    assert (sim.now, sim.events_executed, sim.pending()) == (0.0, 0, 2)
    # the sleep's expiry is the step's one heap event; the wake hop it
    # queues runs from the FIFO in the same step
    with pytest.raises(ValueError, match="boom"):
        sim.step()
    assert (sim.now, sim.events_executed) == (1.0, 1)
    with pytest.raises(ValueError, match="boom"):
        sim.step()


def _interleaved(sim, log):
    """Queue transients and cancellable entries due now, alternately."""
    sim.schedule_transient(0.0, log.append, "t1")
    sim.schedule(0.0, log.append, "h2")
    sim.schedule_transient(0.0, log.append, "t3")
    sim.schedule_at(sim.now, log.append, "h4")
    sim.schedule_transient(0.0, log.append, "t5")


def test_fifo_entries_merge_with_heap_entries_due_now_by_seq():
    """Zero-delay transients run from the FIFO, cancellable entries due
    now from the heap; together they run in seq order, and only the
    heap entries count as events."""
    sim = Simulator()
    log = []
    sim.schedule(1.0, _interleaved, sim, log)
    sim.run()
    assert log == ["t1", "h2", "t3", "h4", "t5"]
    assert (sim.now, sim.events_executed) == (1.0, 3)


def test_step_runs_one_heap_event_then_the_fifo_entries_before_the_next():
    sim = Simulator()
    log = []
    sim.schedule(1.0, _interleaved, sim, log)
    steps = []
    while sim.step():
        steps.append(list(log))
    assert steps == [["t1"], ["t1", "h2", "t3"],
                     ["t1", "h2", "t3", "h4", "t5"]]
    assert sim.events_executed == 3


def test_pending_counts_live_events():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    sim.cancel(ev)
    assert sim.pending() == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_delays_are_rejected(bad):
    """A NaN key compares false both ways and would sit at the top of the
    heap, firing before an event due earlier."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1.0)
    sim.schedule(0.5, fired.append, 0.5)
    for schedule in (sim.schedule, sim.schedule_at, sim.schedule_transient):
        with pytest.raises(SimError):
            schedule(bad, fired.append, bad)
    sim.run()
    assert fired == [0.5, 1.0]
    assert sim.now == 1.0

