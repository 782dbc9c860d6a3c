"""ORIGIN — one broadcasting station must encode many channels at once.

PR 3 and PR 6 made the *receive* side scale (shared decode, batched
delivery, vectorized cohorts); the origin still ran per-frame, per-band
Python loops inside every rebroadcaster block.  The paper's station
serves many channels concurrently (§2.1–2.2) — the Liquidsoap workload
in PAPERS.md is tens of simultaneous streams from one host — so the
serial encoder wall was the last unvectorized hot path.

This benchmark sweeps 1/8/32/64 channels on one origin, each channel a
producer + rebroadcaster + listener encoding 250 ms blocks of the same
source (the *encode* cache stays off so every channel pays the full
encoder cost; the shared decode cache keeps the listener side identical
between arms), races the headline point (32 channels) against the scalar
reference loops (the oracle ``tests/oracles/codec.py``, installed as the
codec's ``encode_block``), and emits
``BENCH_origin.json``.  Two gates:

* batched encode kernels must be **>= 4x** faster at 32 channels;
* against the committed baseline
  (``benchmarks/BENCH_origin_baseline.json``) the *normalised*
  wall-clock — fast divided by scalar, so host speed cancels out — must
  not regress by more than 25 %.
"""

import json
import time
from pathlib import Path

from repro.audio import music
from repro.audio.params import CD_QUALITY
from repro.codec import VorbisLikeCodec
from repro.core import EthernetSpeakerSystem
from repro.metrics import ascii_table
from tests.oracles.codec import scalar_encode_block

SWEEP = [1, 8, 32, 64]
HEADLINE = 32
STREAM_SECONDS = 2.0
BLOCK_SECONDS = 0.25
MIN_SPEEDUP = 4.0
MAX_NORMALISED_REGRESSION = 1.25

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_origin.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_origin_baseline.json"


def run_origin(channels):
    system = EthernetSpeakerSystem(telemetry=False)
    pcm = music(STREAM_SECONDS, 44100, seed=3)
    for i in range(channels):
        producer = system.add_producer(
            name=f"origin{i}",
            slave_path=f"/dev/vads{i}",
            master_path=f"/dev/vadm{i}",
            block_seconds=BLOCK_SECONDS,
        )
        channel = system.add_channel(f"ch{i}", params=CD_QUALITY,
                                     compress="always")
        # the race measures the encoder kernels, not same-source dedupe:
        # every channel must pay for its own encode
        system.add_rebroadcaster(producer, channel,
                                 master_path=f"/dev/vadm{i}",
                                 encode_cache=None)
        system.add_speaker(channel=channel)
        system.play_pcm(producer, pcm, CD_QUALITY,
                        slave_path=f"/dev/vads{i}")
    start = time.perf_counter()
    system.run(until=STREAM_SECONDS + 4.0)
    wall = time.perf_counter() - start
    played = sum(n.stats.played for n in system.speakers)
    blocks = sum(rb.stats.data_sent for rb in system.rebroadcasters)
    pcm_seconds = channels * STREAM_SECONDS
    return {
        "channels": channels,
        "stream_seconds": STREAM_SECONDS,
        "block_seconds": BLOCK_SECONDS,
        "wall_seconds": round(wall, 4),
        "wall_per_sim_second": round(wall / STREAM_SECONDS, 4),
        "events_executed": system.sim.events_executed,
        "events_per_sec": int(system.sim.events_executed / wall),
        "blocks_encoded": blocks,
        "blocks_per_sec": int(blocks / wall),
        # encoder throughput: seconds of source audio pushed through the
        # origin per second of host wall-clock
        "encode_throughput_x": round(pcm_seconds / wall, 2),
        "blocks_played": played,
    }


def test_origin_scale_and_regression_gate(monkeypatch):
    sweep = [run_origin(n) for n in SWEEP]
    fast = next(r for r in sweep if r["channels"] == HEADLINE)
    with monkeypatch.context() as m:
        m.setattr(VorbisLikeCodec, "encode_block", scalar_encode_block)
        scalar = run_origin(HEADLINE)

    # the batched kernels must not change a byte of what anyone hears
    assert fast["blocks_played"] == scalar["blocks_played"] > 0
    assert fast["blocks_encoded"] == scalar["blocks_encoded"]

    speedup = scalar["wall_seconds"] / fast["wall_seconds"]
    normalised = fast["wall_seconds"] / scalar["wall_seconds"]
    result = {
        "params": {
            "encoding": str(CD_QUALITY.encoding.name),
            "sample_rate": CD_QUALITY.sample_rate,
            "channels_per_stream": CD_QUALITY.channels,
            "compress": "always",
            "block_seconds": BLOCK_SECONDS,
        },
        "sweep": sweep,
        "headline": {
            "channels": HEADLINE,
            "stream_seconds": STREAM_SECONDS,
            "fast": fast,
            "scalar": scalar,
            "speedup": round(speedup, 2),
            # host-speed-independent: fast wall over scalar wall
            "normalised_wall": round(normalised, 4),
        },
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print()
    print(ascii_table(
        ["channels", "sim s", "wall s", "wall/sim s", "events/s",
         "blocks/s", "encode x"],
        [[r["channels"], r["stream_seconds"], r["wall_seconds"],
          r["wall_per_sim_second"], r["events_per_sec"],
          r["blocks_per_sec"], r["encode_throughput_x"]]
         for r in sweep + [scalar]],
    ))
    print(f"headline speedup: {speedup:.1f}x "
          f"(gate: >= {MIN_SPEEDUP}x)")

    assert speedup >= MIN_SPEEDUP, (
        f"batched origin only {speedup:.2f}x faster than the scalar "
        f"kernels at {HEADLINE} channels (need >= {MIN_SPEEDUP}x)"
    )

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        base_norm = baseline["headline"]["normalised_wall"]
        limit = base_norm * MAX_NORMALISED_REGRESSION
        print(f"normalised wall: {normalised:.4f} "
              f"(baseline {base_norm:.4f}, limit {limit:.4f})")
        assert normalised <= limit, (
            f"normalised wall-clock regressed >25% vs baseline: "
            f"{normalised:.4f} > {limit:.4f}"
        )
