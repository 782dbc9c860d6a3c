"""Event loop: ordering, cancellation, clock semantics."""

import pytest

from repro.sim import Simulator, SimError


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

