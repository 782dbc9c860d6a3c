"""The now-FIFO against the hop oracle: same run, fewer events.

The runtime runs every zero-delay transient (a wake hop, a spawn or
kill hop, a CPU dispatch) from the simulator's now-FIFO, merged by seq
with the heap entries due at the same instant; it queues no CPU
dispatch that would find nothing to do, and folds a completion's hop
and dispatch into one entry.  ``tests/oracles/sim.py`` queues every hop
and every dispatch on the heap, the way the simulator used to.  Both
arms must run generated programs (and the composed telemetry scenario)
identically: the same step log in virtual time, the same CPU
accounting, the same final clock.  The oracle runs exactly the events
the runtime skipped on top of the runtime's own.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import EthernetSegment, NetworkStack, Nic, wire_bytes
from repro.sim import (
    CPU,
    Process,
    ProcessKilled,
    Queue,
    Simulator,
    Sleep,
    Timeout,
)
from tests.oracles.sim import HopOracle

#: every delay, slice and wire time is a multiple of 1/4096 s, so float
#: sums are exact and many wakes land on an instant something else is
#: due at
TICK = 1 / 1024
#: datagrams carry "p<n>:<op>" (4 bytes); the LAN puts one on the wire
#: in exactly one TICK
PAYLOAD = 4
GROUP, PORT = "239.1.1.1", 5004
FREQ = 64 * 1024
DELAYS = st.sampled_from([0, 0, 1, 2, 3, 5]).map(lambda n: n * TICK)
CYCLES = st.sampled_from([0, 16, 64, 128, 320])  # up to 2.5 quanta
DOMAINS = st.sampled_from(["user", "sys", "intr"])
OWNERS = st.sampled_from([None, "intr", "shared"])

RUN = st.tuples(st.just("run"), st.integers(0, 2), CYCLES, DOMAINS, OWNERS)
RECV = st.tuples(st.just("recv"), st.integers(0, 1), st.none() | DELAYS)
#: ``run`` and ``recv`` are drawn twice as often: a busy completion
#: needs two jobs on one CPU, and an inline delivery a blocked reader
OPS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    RUN,
    RUN,
    st.tuples(st.just("charge"), st.integers(0, 2), CYCLES, DOMAINS,
              OWNERS),
    st.tuples(st.just("get"), st.integers(0, 1), st.none() | DELAYS),
    st.tuples(st.just("put"), st.integers(0, 1), st.none() | DELAYS),
    # a socket reader, blocked in recv() with or without a Timeout
    RECV,
    RECV,
    # one reader's copy: a delivery scheduled as its own event
    st.tuples(st.just("unicast"), st.integers(0, 1)),
    # both readers' copies in one deliver_batch event
    st.tuples(st.just("multicast")),
    # a child process, started and (maybe later) killed from a running
    # step: the control plane's advertisers come and go this way
    st.tuples(st.just("spawn"), DELAYS, CYCLES),
    st.tuples(st.just("kill"), st.integers(0, 7)),
    # a cancellable entry due now, made from a running step: it stays
    # on the heap, and its put wakes a getter through the FIFO, so it
    # must run among the FIFO's entries by seq
    st.tuples(st.just("timer"), st.sampled_from(["schedule", "schedule_at"]),
              st.integers(0, 1)),
)
CONTROLS = st.tuples(
    st.integers(0, 24).map(lambda n: n * TICK),
    st.sampled_from(["kill", "freeze", "thaw", "halt", "unhalt"]),
    st.integers(0, 3),
)
PROGRAMS = st.fixed_dictionaries({
    "cpus": st.integers(1, 3),
    # with free switches, completions land on whole ticks with the rest
    "switch_cost": st.sampled_from([0.0, TICK / 4]),
    "procs": st.lists(st.lists(OPS, max_size=8), min_size=1, max_size=4),
    "controls": st.lists(CONTROLS, max_size=5),
})


IPS = ("10.0.0.1", "10.0.0.2")


def make_lan(sim):
    """Two readers' sockets (both in ``GROUP``, one datagram of room
    each) and a sender's, on one jitter-free LAN with no injector."""
    lan = EthernetSegment(sim, bandwidth_bps=wire_bytes(PAYLOAD) * 8 / TICK,
                          latency=TICK)
    socks = []
    for ip in IPS:
        sock = NetworkStack(sim, Nic(lan, ip)).socket(PORT, rx_capacity=1)
        sock.join_multicast(GROUP)
        socks.append(sock)
    return socks, NetworkStack(sim, Nic(lan, "10.0.0.9")).socket()


def run_program(program):
    """Run ``program`` on a fresh simulator; return what it observed."""
    sim = Simulator()
    cpus = [CPU(sim, freq_hz=FREQ, quantum=2 * TICK,
                switch_cost=program["switch_cost"], name=f"cpu{i}")
            for i in range(program["cpus"])]
    queues = [Queue(capacity=1, name=f"q{i}") for i in range(2)]
    socks, sender = make_lan(sim)
    log = []
    children = []

    def child(name, delay, cycles):
        try:
            yield Sleep(delay)
            yield cpus[-1].run(cycles)
        except ProcessKilled:
            log.append((sim.now, name, "killed"))
            raise
        log.append((sim.now, name, "done"))

    def timer(tag, q):
        log.append((sim.now, tag, "timer", queues[q].put_nowait(tag)))

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
                elif kind == "recv":
                    wait = socks[op[1]].recv()
                    if op[2] is not None:
                        wait = Timeout(wait, op[2])
                    value = (yield wait).payload
                elif kind == "spawn":
                    cname = f"{name}.{i}"
                    children.append(Process.spawn(
                        sim, child(cname, op[1], op[2]), cname))
                    value = cname
                elif kind == "kill":
                    everyone = procs + children
                    target = everyone[op[1] % len(everyone)]
                    target.kill()
                    value = target.name
                elif kind == "timer":
                    _, how, q = op
                    if how == "schedule":
                        sim.schedule(0.0, timer, f"{name}:{i}", q)
                    else:
                        sim.schedule_at(sim.now, timer, f"{name}:{i}", q)
                    value = how
                elif kind in ("unicast", "multicast"):
                    dst = IPS[op[1]] if kind == "unicast" else GROUP
                    value = sender.sendto(f"{name}:{i}".encode(),
                                          (dst, PORT))
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
        "drops": [sock.drops for sock in socks],
        "cpus": [cpu.stats.snapshot() for cpu in cpus],
        "now": sim.now,
        "procs": [(p.alive, p.result, repr(p.exception))
                  for p in procs + children],
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
    """The set-up spawn, the sleep's wake and the completion's step and
    dispatch all run from the FIFO: two events (the sleep's expiry, the
    slice's completion) where the oracle runs six (three hops, and a
    dispatch behind the last)."""
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
    assert (new_sim.events_executed, oracle.removable) == (2, 4)
    assert old_sim.events_executed == 6


def test_a_busy_instant_queues_no_hop():
    """Two sleepers due together.  ``a``'s expiry queues its wake hop
    in the FIFO, but ``b``'s expiry, due at the same instant with a
    smaller seq, runs first; then both hops run from the FIFO.  Only
    the two expiries are events, where the oracle also pops the two
    set-up spawns and the two hops."""
    order = []

    def program():
        sim = Simulator()

        def body(name):
            yield Sleep(TICK)
            order.append((name, len(sim._fifo)))

        Process.spawn(sim, body("a"))
        Process.spawn(sim, body("b"))
        sim.run()
        return sim, None

    (new_sim, _), (old_sim, _), oracle = both_arms(program)
    # in the runtime, ``a`` steps with ``b``'s hop still in the FIFO
    assert order == [("a", 1), ("b", 0), ("a", 0), ("b", 0)]
    assert (new_sim.events_executed, oracle.removable) == (2, 4)
    assert old_sim.events_executed == 6


def test_a_busy_completion_is_one_entry():
    """``a`` and ``b`` share a CPU and ``c`` wakes just as ``a``'s job
    ends.  The oracle queues ``a``'s hop and the dispatch of ``b``'s
    job as two adjacent entries; the runtime queues one, in the FIFO.
    ``b``'s lone completion then steps ``b``, with no dispatch to
    follow it.  The three timer events (``c``'s expiry and the two
    completions) are the runtime's only events."""
    order = []

    def program():
        sim = Simulator()
        cpu = CPU(sim, freq_hz=FREQ, switch_cost=0.0)

        def worker(name):
            yield cpu.run(64)
            order.append((name, sim.now))

        def sleeper():
            yield Sleep(TICK)
            order.append(("c", sim.now))

        Process.spawn(sim, worker("a"))
        Process.spawn(sim, worker("b"))
        Process.spawn(sim, sleeper())
        sim.run()
        return sim, cpu.stats.snapshot()

    (new_sim, new), (old_sim, old), oracle = both_arms(program)
    assert new == old
    assert order == [("a", TICK), ("c", TICK), ("b", 2 * TICK)] * 2
    # three spawns, a's hop and the dispatch behind it, c's wake hop,
    # b's hop and the dispatch the runtime skips behind it
    assert (new_sim.events_executed, oracle.removable) == (3, 8)
    assert old_sim.events_executed == 11


def test_a_lone_delivery_wakes_its_reader_inline():
    """A unicast copy is its own event: the reader blocked in recv()
    steps from the FIFO right after it.  A multicast copy to both
    readers rides one deliver_batch event, and both readers it wakes
    step from the FIFO after the batch, in the order it woke them."""
    got = []

    def program(dst):
        sim = Simulator()
        socks, sender = make_lan(sim)

        def reader(sock):
            got.append(((yield sock.recv()).payload, sim.now))

        for sock in socks:
            Process.spawn(sim, reader(sock))
        sender.sendto(b"ping", (dst, PORT))
        sim.run()
        return sim, sim.now

    (new_sim, _), (old_sim, _), oracle = both_arms(lambda: program(IPS[0]))
    assert got == [(b"ping", 2 * TICK)] * 2
    # two set-up spawns and the reader's wake
    assert (new_sim.events_executed, oracle.removable) == (1, 3)
    assert old_sim.events_executed == 4

    got.clear()
    (new_sim, _), (old_sim, _), oracle = both_arms(lambda: program(GROUP))
    assert got == [(b"ping", 2 * TICK)] * 4
    assert (new_sim.events_executed, oracle.removable) == (1, 4)
    assert old_sim.events_executed == 5


def test_spawn_and_kill_from_a_running_step_queue_no_entry():
    """A running process starts a child, and one tick later kills it.
    Each hop runs from the FIFO: the heap never holds them, and the runtime runs only the parent's two timer events
    (the child's cancelled timer is popped, not run)."""
    log = []

    def program():
        sim = Simulator()

        def child():
            try:
                yield Sleep(10 * TICK)
            except ProcessKilled:
                log.append(("killed", sim.now))
                raise

        def parent():
            yield Sleep(TICK)
            depth = len(sim._heap)
            kid = Process.spawn(sim, child())
            log.append(("spawn queued", len(sim._heap) - depth))
            yield Sleep(TICK)
            depth = len(sim._heap)
            kid.kill()
            log.append(("kill queued", len(sim._heap) - depth))

        Process.spawn(sim, parent())
        sim.run()
        return sim, sim.now

    (new_sim, new), (old_sim, old), oracle = both_arms(program)
    assert new == old == 2 * TICK
    assert log[:3] == [("spawn queued", 0), ("kill queued", 0),
                       ("killed", 2 * TICK)]
    # set-up spawn, two wake hops, the child's spawn and kill hops
    assert (new_sim.events_executed, oracle.removable) == (2, 5)
    assert old_sim.events_executed == 7


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
