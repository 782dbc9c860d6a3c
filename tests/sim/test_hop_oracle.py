"""Inline wakes against the hop oracle: same run, fewer queue entries.

The runtime steps a woken process inline when its hop would run next,
and queues no CPU dispatch that would find nothing to do.
``tests/oracles/sim.py`` queues every hop and every dispatch, the way
the simulator used to.  Both arms must run generated programs (and the
composed telemetry scenario) identically: the same step log in virtual
time, the same CPU accounting, the same final clock.  The oracle runs
exactly the events the runtime skipped on top of the runtime's own.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    CPU,
    Process,
    Queue,
    Simulator,
    Sleep,
    Timeout,
)
from tests.oracles.sim import HopOracle

#: every delay and slice is a multiple of 1/4096 s, so float sums are
#: exact and many wakes land on an instant something else is due at
TICK = 1 / 1024
FREQ = 64 * 1024
DELAYS = st.sampled_from([0, 0, 1, 2, 3, 5]).map(lambda n: n * TICK)
CYCLES = st.sampled_from([0, 16, 64, 128, 320])  # up to 2.5 quanta
DOMAINS = st.sampled_from(["user", "sys", "intr"])
OWNERS = st.sampled_from([None, "intr", "shared"])

OPS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("run"), st.integers(0, 2), CYCLES, DOMAINS, OWNERS),
    st.tuples(st.just("charge"), st.integers(0, 2), CYCLES, DOMAINS,
              OWNERS),
    st.tuples(st.just("get"), st.integers(0, 1), st.none() | DELAYS),
    st.tuples(st.just("put"), st.integers(0, 1), st.none() | DELAYS),
)
CONTROLS = st.tuples(
    st.integers(0, 24).map(lambda n: n * TICK),
    st.sampled_from(["kill", "freeze", "thaw", "halt", "unhalt"]),
    st.integers(0, 3),
)
PROGRAMS = st.fixed_dictionaries({
    "cpus": st.integers(1, 3),
    "procs": st.lists(st.lists(OPS, max_size=8), min_size=1, max_size=4),
    "controls": st.lists(CONTROLS, max_size=5),
})


def run_program(program):
    """Run ``program`` on a fresh simulator; return what it observed."""
    sim = Simulator()
    cpus = [CPU(sim, freq_hz=FREQ, quantum=2 * TICK, switch_cost=TICK / 4,
                name=f"cpu{i}") for i in range(program["cpus"])]
    queues = [Queue(capacity=1, name=f"q{i}") for i in range(2)]
    log = []

    def body(name, ops):
        for i, op in enumerate(ops):
            kind = op[0]
            try:
                if kind == "sleep":
                    value = yield Sleep(op[1])
                elif kind == "run":
                    _, c, cycles, domain, owner = op
                    value = yield cpus[c % len(cpus)].run(
                        cycles, domain, owner)
                elif kind == "charge":
                    _, c, cycles, domain, owner = op
                    cpus[c % len(cpus)].charge(cycles, domain,
                                               owner or "intr")
                    value = "charged"
                else:
                    q = queues[op[1]]
                    wait = q.get() if kind == "get" else q.put((name, i))
                    if op[2] is not None:
                        wait = Timeout(wait, op[2])
                    value = yield wait
            except TimeoutError:
                value = "timeout"
            log.append((sim.now, name, i, value))
        return name

    procs = [Process.spawn(sim, body(f"p{n}", ops), f"p{n}")
             for n, ops in enumerate(program["procs"])]

    def control(kind, target):
        if kind in ("halt", "unhalt"):
            getattr(cpus[target % len(cpus)], kind)()
        else:
            getattr(procs[target % len(procs)], kind)()

    for at, kind, target in program["controls"]:
        sim.schedule(at, control, kind, target)
    sim.run()
    return sim, {
        "log": log,
        "cpus": [cpu.stats.snapshot() for cpu in cpus],
        "now": sim.now,
        "procs": [(p.alive, p.result, repr(p.exception)) for p in procs],
    }


def both_arms(run):
    """``run()`` as the runtime runs it, then under the hop oracle."""
    new = run()
    with pytest.MonkeyPatch.context() as mp:
        oracle = HopOracle().install(mp)
        old = run()
    return new, old, oracle


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_generated_programs_match_the_hop_oracle(program):
    (new_sim, new), (old_sim, old), oracle = both_arms(
        lambda: run_program(program))
    assert new == old
    assert (old_sim.events_executed
            == new_sim.events_executed + oracle.removable)


def test_a_lone_wake_runs_inline():
    """Spawn hop, the sleep's expiry, the slice's completion: three
    events where the oracle runs six (two wake hops, one dispatch)."""
    def program():
        sim = Simulator()
        cpu = CPU(sim, freq_hz=FREQ, switch_cost=0.0)

        def body():
            yield Sleep(TICK)
            yield cpu.run(64)

        Process.spawn(sim, body())
        sim.run()
        return sim, (sim.now, cpu.stats.snapshot())

    (new_sim, new), (old_sim, old), oracle = both_arms(program)
    assert new == old == (2 * TICK, old[1])
    assert (new_sim.events_executed, oracle.removable) == (3, 3)
    assert old_sim.events_executed == 6


def test_a_busy_instant_keeps_the_hop():
    """Two sleepers due together: the first wake waits behind the second
    sleeper's expiry, the second behind the first's hop.  Neither may
    run inline, so both arms run the same six events."""
    order = []

    def program():
        sim = Simulator()

        def body(name):
            yield Sleep(TICK)
            order.append(name)

        Process.spawn(sim, body("a"))
        Process.spawn(sim, body("b"))
        sim.run()
        return sim, None

    (new_sim, _), (old_sim, _), oracle = both_arms(program)
    assert order == ["a", "b", "a", "b"]
    assert new_sim.events_executed == old_sim.events_executed == 6
    assert oracle.removable == 0


def test_composed_scenario_matches_the_hop_oracle():
    from tests.test_telemetry_composed import (
        _composed,
        _play_logs,
        _report_counts,
    )

    def run():
        system = _composed(telemetry=False)
        return system.sim, {
            "now": system.sim.now,
            "logs": _play_logs(system),
            "report": _report_counts(system),
            "cpus": _cpu_stats(system),
        }

    (new_sim, new), (old_sim, old), oracle = both_arms(run)
    assert new == old
    assert oracle.removable > 0
    assert (old_sim.events_executed
            == new_sim.events_executed + oracle.removable)


def _cpu_stats(system):
    """Every CPU's counters on the system's simulator, spilled clones'
    included, as a multiset (the order objects are found in varies)."""
    return sorted(sorted(o.stats.snapshot().items())
                  for o in gc.get_objects()
                  if isinstance(o, CPU) and o.sim is system.sim)
