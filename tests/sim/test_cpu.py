"""CPU scheduler: timing, fairness, context-switch accounting."""

import pytest

from repro.sim import CPU, Process, Simulator, Sleep


def spawn(sim, gen, name="p"):
    return Process.spawn(sim, gen, name)


def test_run_takes_cycles_over_frequency_seconds():
    sim = Simulator()
    cpu = CPU(sim, freq_hz=100e6, switch_cost=0.0)

    def body():
        yield cpu.run(50e6)  # half a second at 100 MHz
        return sim.now

    p = spawn(sim, body())
    sim.run()
    assert p.result == pytest.approx(0.5)


def test_slow_cpu_takes_proportionally_longer():
    results = {}
    for freq in (233e6, 2330e6):
        sim = Simulator()
        cpu = CPU(sim, freq_hz=freq, switch_cost=0.0)

        def body():
            yield cpu.run(233e6)
            return sim.now

        p = spawn(sim, body())
        sim.run()
        results[freq] = p.result
    assert results[233e6] == pytest.approx(10 * results[2330e6])


def test_cpu_serialises_two_processes():
    """Two CPU-bound processes on one core take 2x the time of one."""
    sim = Simulator()
    cpu = CPU(sim, freq_hz=100e6, switch_cost=0.0)
    done = []

    def body(tag):
        yield cpu.run(100e6)
        done.append((tag, sim.now))

    spawn(sim, body("a"))
    spawn(sim, body("b"))
    sim.run()
    assert max(t for _, t in done) == pytest.approx(2.0)


def test_round_robin_interleaves_fairly():
    """With quantum preemption both jobs finish about together."""
    sim = Simulator()
    cpu = CPU(sim, freq_hz=100e6, quantum=0.01, switch_cost=0.0)
    done = []

    def body(tag):
        yield cpu.run(100e6)
        done.append((tag, sim.now))

    spawn(sim, body("a"))
    spawn(sim, body("b"))
    sim.run()
    times = [t for _, t in done]
    # fair sharing: both complete within one quantum of each other
    assert abs(times[0] - times[1]) <= 0.01 + 1e-9


def test_busy_seconds_accounted_by_domain():
    sim = Simulator()
    cpu = CPU(sim, freq_hz=100e6, switch_cost=0.0)

    def body():
        yield cpu.run(30e6, domain="user")
        yield cpu.run(10e6, domain="sys")
        yield cpu.run(5e6, domain="intr")

    spawn(sim, body())
    sim.run()
    assert cpu.stats.domain_seconds["user"] == pytest.approx(0.3)
    assert cpu.stats.domain_seconds["sys"] == pytest.approx(0.1)
    assert cpu.stats.domain_seconds["intr"] == pytest.approx(0.05)
    assert cpu.stats.busy_seconds == pytest.approx(0.45)


def test_context_switches_counted_between_owners():
    sim = Simulator()
    cpu = CPU(sim, freq_hz=100e6, quantum=1.0, switch_cost=0.0)

    def body():
        yield cpu.run(1e6)

    spawn(sim, body())
    spawn(sim, body())
    sim.run()
    # idle->a, a->b (the final drop to idle is only accounted when the
    # CPU is next used after a real idle gap, so it is not counted here)
    assert cpu.stats.context_switches == 2


def test_single_process_busy_loop_switches_once_per_wake():
    """A process alternating work and sleep switches in and out each cycle."""
    sim = Simulator()
    cpu = CPU(sim, freq_hz=100e6, quantum=1.0, switch_cost=0.0)

    def body():
        for _ in range(5):
            yield cpu.run(1e6)
            yield Sleep(1.0)

    spawn(sim, body())
    sim.run()
    # first wake: 1 switch in; each later wake: out-to-idle + back in
    assert cpu.stats.context_switches == 9


def test_continuous_work_by_one_owner_does_not_rack_up_switches():
    """Back-to-back run() calls by the same process cost one switch in."""
    sim = Simulator()
    cpu = CPU(sim, freq_hz=100e6, quantum=10.0, switch_cost=0.0)

    def body():
        for _ in range(10):
            yield cpu.run(1e6)

    spawn(sim, body())
    sim.run()
    # idle->proc once; no observable switch after (no later CPU use)
    assert cpu.stats.context_switches == 1


def test_switch_cost_charged_as_system_time():
    sim = Simulator()
    cpu = CPU(sim, freq_hz=100e6, quantum=1.0, switch_cost=0.001)

    def body():
        yield cpu.run(1e6, domain="user")

    spawn(sim, body())
    sim.run()
    assert cpu.stats.domain_seconds["sys"] == pytest.approx(0.001)


def test_interrupt_owner_attribution():
    """Work attributed to a distinct owner token forces switches."""
    sim = Simulator()
    cpu = CPU(sim, freq_hz=100e6, quantum=1.0, switch_cost=0.0)

    def body():
        yield cpu.run(1e6, owner="driver-intr")
        yield cpu.run(1e6, owner="driver-intr")

    spawn(sim, body())
    sim.run()
    # idle -> driver-intr once; the second run is the same owner
    assert cpu.stats.context_switches == 1


def test_invalid_args_rejected():
    sim = Simulator()
    cpu = CPU(sim)
    with pytest.raises(Exception):
        cpu.run(-5)
    with pytest.raises(Exception):
        cpu.run(10, domain="bogus")
    with pytest.raises(Exception):
        CPU(sim, freq_hz=0)


def test_utilisation_half_busy():
    sim = Simulator()
    cpu = CPU(sim, freq_hz=100e6, switch_cost=0.0)

    def body():
        yield cpu.run(100e6)  # 1s busy

    spawn(sim, body())
    sim.run(until=2.0)
    assert cpu.stats.busy_seconds / sim.now == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_cycles_rejected(bad):
    from repro.sim import SimError

    sim = Simulator()
    cpu = CPU(sim)
    with pytest.raises(SimError):
        cpu.run(bad)
    with pytest.raises(SimError):
        cpu.charge(bad)
    assert not cpu.busy and cpu.queue_depth == 0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs", [
    # a zero-cycle slice never lowers a job's remaining work: livelock
    dict(quantum=0.0),
    dict(quantum=-0.01),
    dict(quantum=NAN),
    dict(quantum=INF),
    dict(freq_hz=NAN),
    dict(freq_hz=INF),
    dict(freq_hz=-1.0),
    dict(switch_cost=-20e-6),
    dict(switch_cost=NAN),
    dict(switch_cost=INF),
])
def test_bad_cpu_parameters_rejected_at_construction(kwargs):
    from repro.sim import SimError

    with pytest.raises(SimError):
        CPU(Simulator(), **kwargs)


def test_free_switches_accepted():
    assert CPU(Simulator(), switch_cost=0.0).switch_cost == 0.0
