"""Committed run goldens: the perfbench workloads replay bit-for-bit.

Each perfbench workload (``station``, ``churn``, ``audience``) runs at
its ``"small"`` size for seeds 1-3, and every row of
``tests/goldens/runs.json`` must match the run exactly:

* ``play_digest``: every listener's play log, cohort members included,
  in the workload's listener order
* ``write_digest``: the same listeners' write offsets
* ``report_hash``: ``repr(pipeline_report())``
* ``cpu``: context switches, busy seconds (``math.fsum``) and jobs
  completed, summed over every CPU made on the run's simulator
* ``now``: the final virtual clock
* ``events``: the simulator's executed events, kept apart from the rest,
  so a change that moves only the event count moves one number

The runs must not depend on when Python's garbage collector runs: each
row also matches with the collector off, and with a full
``gc.collect()`` forced from simulator callbacks at seeded instants
(``events`` then counts net of those callbacks).

Regenerate the file after a change that is meant to move a run::

    PYTHONPATH=src python -m tests.test_run_goldens
"""

import gc
import hashlib
import json
import math
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.sim.cpu import CPU
from tests.test_perfbench_counts import workloads

GOLDENS = Path(__file__).resolve().parent / "goldens" / "runs.json"
CASES = [(name, seed) for name in ("station", "churn", "audience")
         for seed in (1, 2, 3)]
#: full collections forced per run by the collector variant
FORCED_COLLECTIONS = 40


@contextmanager
def _every_cpu():
    """Yield a list that collects every CPU constructed meanwhile."""
    made = []
    init = CPU.__init__

    def recording_init(cpu, *args, **kwargs):
        init(cpu, *args, **kwargs)
        made.append(cpu)

    CPU.__init__ = recording_init
    try:
        yield made
    finally:
        CPU.__init__ = init


def _listeners(built):
    """``(play log, write offsets)`` of every listener, in order."""
    for nodes, cohort in zip(built.speakers, built.cohorts):
        for node in nodes:
            yield node.stats.play_log, node.stats.write_offsets
        if cohort is not None:
            for i in range(cohort.members):
                yield (cohort.member_stats(i).play_log,
                       cohort.member_write_offsets(i))


def _hash(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _force_collections(sim, until: float, count: int, seed) -> list:
    """Schedule ``count`` full collections at seeded instants before
    ``until``; returns the list each one appends its clock to."""
    fired = []

    def collect():
        gc.collect()
        fired.append(sim.now)

    rng = random.Random(seed)
    for _ in range(count):
        sim.schedule(rng.uniform(0.0, until), collect)
    return fired


def run_row(name: str, seed: int, collections: int = 0) -> dict:
    """Run one workload at its small size; return its golden row.

    With ``collections``, that many full collections are forced from
    simulator callbacks at seeded instants, and ``events`` is counted
    net of those callbacks.
    """
    inputs = workloads.make_inputs(name, seed, size="small")
    with _every_cpu() as cpus:
        built = workloads.build(inputs)
        fired = _force_collections(built.system.sim, inputs.until,
                                   collections, f"gc/{name}/{seed}")
        built.system.run(until=inputs.until)
    assert len(fired) == collections
    sim = built.system.sim
    plays = hashlib.blake2b(digest_size=16)
    writes = hashlib.blake2b(digest_size=16)
    for log, offsets in _listeners(built):
        plays.update(workloads._log_digest(log))
        writes.update(repr(offsets).encode())
    stats = [cpu.stats for cpu in cpus if cpu.sim is sim]
    return {
        "workload": name,
        "seed": seed,
        "play_digest": plays.hexdigest(),
        "write_digest": writes.hexdigest(),
        "report_hash": _hash(repr(built.system.pipeline_report())),
        "cpu": {
            "context_switches": sum(s.context_switches for s in stats),
            "busy_seconds": math.fsum(s.busy_seconds for s in stats),
            "jobs_completed": sum(s.jobs_completed for s in stats),
        },
        "now": sim.now,
        "events": sim.events_executed - collections,
    }


def _committed() -> dict:
    rows = json.loads(GOLDENS.read_text())
    return {(row["workload"], row["seed"]): row for row in rows}


@pytest.mark.parametrize("name,seed", CASES)
def test_run_matches_its_golden(name, seed):
    assert run_row(name, seed) == _committed()[name, seed]


@pytest.mark.parametrize("name,seed", CASES)
def test_run_matches_its_golden_with_gc_disabled(name, seed):
    enabled = gc.isenabled()
    gc.disable()
    try:
        row = run_row(name, seed)
    finally:
        if enabled:
            gc.enable()
    assert row == _committed()[name, seed]


@pytest.mark.parametrize("name,seed", CASES)
def test_run_matches_its_golden_with_forced_collections(name, seed):
    # Everything the test session made so far is frozen out of the
    # collector, so each forced collection walks only this run's objects.
    gc.collect()
    gc.freeze()
    try:
        row = run_row(name, seed, collections=FORCED_COLLECTIONS)
    finally:
        gc.unfreeze()
    assert row == _committed()[name, seed]


def test_goldens_cover_every_case():
    assert sorted(_committed()) == sorted(CASES)


if __name__ == "__main__":
    rows = [run_row(name, seed) for name, seed in CASES]
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {GOLDENS}")
