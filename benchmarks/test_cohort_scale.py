"""COHORT — ten thousand speakers should cost barely more than one.

A unity-gain fleet is N copies of the same state machine fed the same
multicast bytes.  ``SpeakerCohort`` collapses the copies into one
exemplar speaker whose state every member shares, advancing the whole
fleet one event per delivered frame instead of N — so host wall-clock scales with the
*stream*, not the audience, exactly like the wire does (§2.3: the
producer "does not need to maintain any state for the Ethernet
Speakers").

This benchmark sweeps cohort sizes up to 10,000 members × 10 simulated
seconds, races the vectorized fleet against a per-object fleet (the
differential oracle ``tests/oracles/fleet.py``) at the 1,024-member race
point, and emits
``BENCH_cohort.json``.  Three gates:

* the cohort must execute **>= 10x fewer** simulator events than the
  per-object fleet at the race point;
* the sweep must be **sublinear**: growing the fleet 1,000 -> 10,000
  members may cost at most 3x the wall-clock (per-object would be 10x);
* against the committed baseline
  (``benchmarks/BENCH_cohort_baseline.json``) the *normalised*
  wall-clock — cohort divided by per-object, so host speed cancels
  out — must not regress by more than 25 %.
"""

import json
import time
from pathlib import Path

from repro.audio import AudioEncoding, AudioParams, music
from repro.core import EthernetSpeakerSystem
from repro.metrics import ascii_table
from tests.oracles.fleet import add_object_fleet

PARAMS = AudioParams(AudioEncoding.SLINEAR16, 22050, 1)
STREAM_SECONDS = 10.0
SWEEP = [1000, 4000, 10000]
RACE_MEMBERS = 1024
MIN_EVENT_RATIO = 10.0
MAX_SWEEP_GROWTH = 3.0
MAX_NORMALISED_REGRESSION = 1.25

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_cohort.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_cohort_baseline.json"


def run_fleet(members, *, cohort):
    system = EthernetSpeakerSystem(telemetry=False)
    producer = system.add_producer()
    channel = system.add_channel("bench", params=PARAMS, compress="always")
    system.add_rebroadcaster(producer, channel)
    if cohort:
        fleet = system.add_speaker_cohort(channel, members)
    else:
        fleet = add_object_fleet(system, channel, members)
    system.play_pcm(
        producer, music(STREAM_SECONDS, PARAMS.sample_rate, seed=3), PARAMS
    )
    start = time.perf_counter()
    system.run(until=STREAM_SECONDS + 4.0)
    wall = time.perf_counter() - start
    played = fleet.stat_sum("played")
    packets = sum(rb.stats.data_sent for rb in system.rebroadcasters)
    return {
        "members": members,
        "cohort": cohort,
        "stream_seconds": STREAM_SECONDS,
        "wall_seconds": round(wall, 4),
        "wall_per_sim_second": round(wall / STREAM_SECONDS, 4),
        "events_executed": system.sim.events_executed,
        "events_saved": fleet.events_saved,
        "spills": fleet.spills,
        "packets_sent": packets,
        "blocks_played": played,
    }


def test_cohort_scale_and_regression_gate():
    sweep = [run_fleet(n, cohort=True) for n in SWEEP]
    race_cohort = run_fleet(RACE_MEMBERS, cohort=True)
    race_object = run_fleet(RACE_MEMBERS, cohort=False)

    # the fast path must not change what the audience hears: every
    # member plays the same number of blocks either way, nobody spills
    # on a clean wire, and the wire itself is untouched
    assert race_cohort["blocks_played"] == race_object["blocks_played"] > 0
    assert race_cohort["packets_sent"] == race_object["packets_sent"]
    assert race_cohort["spills"] == 0

    event_ratio = (race_object["events_executed"]
                   / race_cohort["events_executed"])
    speedup = race_object["wall_seconds"] / race_cohort["wall_seconds"]
    normalised = race_cohort["wall_seconds"] / race_object["wall_seconds"]
    growth = sweep[-1]["wall_seconds"] / sweep[0]["wall_seconds"]
    result = {
        "params": {
            "encoding": str(PARAMS.encoding.name),
            "sample_rate": PARAMS.sample_rate,
            "channels": PARAMS.channels,
            "compress": "always",
            "stream_seconds": STREAM_SECONDS,
        },
        "sweep": sweep,
        "sweep_growth_1k_to_10k": round(growth, 2),
        "race": {
            "members": RACE_MEMBERS,
            "cohort": race_cohort,
            "per_object": race_object,
            "event_ratio": round(event_ratio, 2),
            "speedup": round(speedup, 2),
            # host-speed-independent: cohort wall over per-object wall
            "normalised_wall": round(normalised, 4),
        },
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print()
    print(ascii_table(
        ["members", "mode", "wall s", "wall/sim s", "events", "saved"],
        [[r["members"], "cohort" if r["cohort"] else "object",
          r["wall_seconds"], r["wall_per_sim_second"],
          r["events_executed"], r["events_saved"]]
         for r in sweep + [race_cohort, race_object]],
    ))
    print(f"race event ratio: {event_ratio:.1f}x fewer events "
          f"(gate: >= {MIN_EVENT_RATIO}x); wall speedup {speedup:.1f}x")
    print(f"sweep growth 1k->10k members: {growth:.2f}x wall "
          f"(gate: <= {MAX_SWEEP_GROWTH}x)")

    assert event_ratio >= MIN_EVENT_RATIO, (
        f"cohort only cut events {event_ratio:.1f}x vs per-object at "
        f"{RACE_MEMBERS} members (need >= {MIN_EVENT_RATIO}x)"
    )
    assert growth <= MAX_SWEEP_GROWTH, (
        f"10x more members cost {growth:.2f}x wall-clock "
        f"(sublinearity gate: <= {MAX_SWEEP_GROWTH}x)"
    )

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        base_norm = baseline["race"]["normalised_wall"]
        limit = base_norm * MAX_NORMALISED_REGRESSION
        print(f"normalised wall: {normalised:.4f} "
              f"(baseline {base_norm:.4f}, limit {limit:.4f})")
        assert normalised <= limit, (
            f"normalised wall-clock regressed >25% vs baseline: "
            f"{normalised:.4f} > {limit:.4f}"
        )
