"""CHURN — the control plane must absorb 1k joins+leaves/s.

The discovery registry's whole job is surviving fleet churn: entities
joining (ADP adverts), leaving cleanly (ENTITY_DEPARTING) and leaving as
zombies (silent crash; the lease does the work).  This benchmark drives
a fixed slot pool through a join/leave cycle at increasing rates up to
the headline 1000 ops/s, checks the registry ends *exactly* consistent
with the surviving slots, and emits ``BENCH_churn.json``.

The regression gate is host-independent: simulator **events per churn
op** at the headline rate is a pure function of the control-plane code
(advert cadence, scan cadence, transaction structure), deterministic per
seed — against the committed baseline
(``benchmarks/BENCH_churn_baseline.json``) it must not grow by more
than 25 %.  The same run must also match the baseline's headline counts
exactly — events executed, adverts, departs, expiries and live entities
at the end — so a speed-up that changes what the control plane does
fails here even when it stays inside the 25 %.  The baseline's
``events_per_op`` dates from an older commit than its exact counts, so
the two do not divide into each other; at the headline rate the exact
``events_executed`` check already pins events per op, and the 25 % gate
cannot fail there on its own.  The headline run under the hop oracle
(``tests/oracles/sim.py``: every wake and CPU dispatch queued) must
execute exactly the baseline's ``hop_oracle_events_executed`` and match
its other exact counts.
"""

import json
import random
import time
from pathlib import Path

from repro.core import EthernetSpeakerSystem
from repro.metrics import ascii_table
from repro.sim.process import Process, Sleep
from tests.oracles.sim import HopOracle

POOL = 32                 # slots cycling join -> leave -> join
SWEEP = [(100, 4.0), (300, 4.0), (1000, 4.0)]   # (ops/s, sim seconds)
HEADLINE_RATE = 1000
ZOMBIE_FRACTION = 1 / 3   # leaves that crash instead of departing
VALID = 0.2
CHECK = 0.05
INTERVAL = 0.05
CHURN_START = 0.5
SETTLE = 1.0              # > VALID + CHECK: every zombie lease lapses
MAX_EVENTS_PER_OP_REGRESSION = 1.25
#: headline counts that must equal the committed baseline exactly
EXACT_KEYS = ("events_executed", "adverts", "departs", "expiries",
              "final_live")

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_churn.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_churn_baseline.json"


def run_churn(rate, sim_seconds):
    system = EthernetSpeakerSystem(telemetry=False)
    slots = [
        system.add_speaker(channel=None, start=False, name=f"slot{i}")
        for i in range(POOL)
    ]
    advs = [
        system.advertise_speaker(
            node, valid_time=VALID, interval=INTERVAL
        )
        for node in slots
    ]
    controller = system.add_controller(check_interval=CHECK)
    total_ops = int(rate * sim_seconds)
    joined = [True] * POOL
    counts = {"joins": 0, "clean_leaves": 0, "zombie_leaves": 0}
    rng = random.Random(rate * 1000 + 7)

    def churn():
        yield Sleep(CHURN_START)
        for op in range(total_ops):
            slot = op % POOL
            adv = advs[slot]
            if joined[slot]:
                if rng.random() < ZOMBIE_FRACTION:
                    adv.stop()              # zombie: no goodbye
                    counts["zombie_leaves"] += 1
                else:
                    adv.depart()
                    counts["clean_leaves"] += 1
                joined[slot] = False
            else:
                adv.start()
                counts["joins"] += 1
                joined[slot] = True
            yield Sleep(1.0 / rate)

    Process.spawn(system.sim, churn(), name="churn-driver")
    start = time.perf_counter()
    system.run(until=CHURN_START + sim_seconds + SETTLE)
    wall = time.perf_counter() - start

    # the registry must agree exactly with the surviving slots
    live = {rec.name for rec in controller.available()}
    expected = {f"slot{i}" for i in range(POOL) if joined[i]}
    assert live == expected, (
        f"registry diverged after churn: extra={sorted(live - expected)} "
        f"missing={sorted(expected - live)}"
    )
    assert controller.stats.stale_adverts == 0
    assert len(controller.entities) <= POOL    # slots reuse entity ids
    ops = total_ops
    return {
        "rate_ops_per_sim_s": rate,
        "sim_seconds": sim_seconds,
        "ops": ops,
        "joins": counts["joins"],
        "clean_leaves": counts["clean_leaves"],
        "zombie_leaves": counts["zombie_leaves"],
        "wall_seconds": round(wall, 4),
        "ops_per_wall_sec": int(ops / wall),
        "events_executed": system.sim.events_executed,
        # the host-independent gate metric: deterministic per seed
        "events_per_op": round(system.sim.events_executed / ops, 3),
        "adverts": controller.stats.adp_advertises,
        "departs": controller.stats.departs,
        "expiries": controller.stats.expiries,
        "final_live": len(live),
    }


def test_churn_scale_and_regression_gate(monkeypatch):
    sweep = [run_churn(rate, secs) for rate, secs in SWEEP]
    headline = next(
        r for r in sweep if r["rate_ops_per_sim_s"] == HEADLINE_RATE
    )

    # the control plane actually saw the churn, both leave flavours
    for r in sweep:
        assert r["departs"] > 0, "no clean departures registered"
        assert r["adverts"] > 0
    # at low rate the zombie dwell exceeds the lease: expiries must fire
    assert sweep[0]["expiries"] > 0, "no zombie ever aged out"

    result = {
        "pool": POOL,
        "valid_time": VALID,
        "check_interval": CHECK,
        "advert_interval": INTERVAL,
        "zombie_fraction": round(ZOMBIE_FRACTION, 4),
        "sweep": sweep,
        "headline": {
            "rate_ops_per_sim_s": HEADLINE_RATE,
            "events_per_op": headline["events_per_op"],
            "ops_per_wall_sec": headline["ops_per_wall_sec"],
        },
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print()
    print(ascii_table(
        ["ops/sim s", "ops", "zombies", "expiries", "departs",
         "events/op", "ops/wall s"],
        [[r["rate_ops_per_sim_s"], r["ops"], r["zombie_leaves"],
          r["expiries"], r["departs"], r["events_per_op"],
          r["ops_per_wall_sec"]]
         for r in sweep],
    ))

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        base = baseline["headline"]["events_per_op"]
        limit = base * MAX_EVENTS_PER_OP_REGRESSION
        print(f"events/op at {HEADLINE_RATE} ops/s: "
              f"{headline['events_per_op']} "
              f"(baseline {base}, limit {limit:.3f})")
        assert headline["events_per_op"] <= limit, (
            f"control-plane event cost per churn op regressed >25% vs "
            f"baseline: {headline['events_per_op']} > {limit:.3f}"
        )
        for key in EXACT_KEYS:
            assert headline[key] == baseline["headline"][key], (
                f"headline {key} changed: {headline[key]} != baseline "
                f"{baseline['headline'][key]}"
            )

        oracle = HopOracle().install(monkeypatch)
        hops = run_churn(HEADLINE_RATE, headline["sim_seconds"])
        print(f"hop oracle: {hops['events_executed']} events, "
              f"{oracle.removable} of them skipped by the runtime")
        assert (hops["events_executed"]
                == baseline["headline"]["hop_oracle_events_executed"]
                == headline["events_executed"] + oracle.removable)
        for key in EXACT_KEYS[1:]:
            assert hops[key] == headline[key]
