"""FAN-OUT — adding a listener must be (nearly) free on the host, too.

The paper's producer "does not need to maintain any state for the Ethernet
Speakers" (§2.3): the wire cost of a multicast stream is independent of the
audience size.  The simulator's *host* cost was not — every speaker decoded
every block privately and every receiver copy was its own heap event.  The
fan-out fast path (shared-decode cache + zero-copy parsing + batched
delivery + zero-delay hops run from the event loop's now-FIFO instead
of the heap) makes host
wall-clock scale like the wire.

This benchmark sweeps speakers × stream-seconds and emits
``BENCH_fanout.json``.  Its gate is exact and host-independent: at the
headline point (64 speakers × 10 s) the run must execute exactly the
simulator events and play exactly the blocks recorded in the committed
baseline (``benchmarks/BENCH_fanout_baseline.json``, ``headline.fast``).
An extra event per frame or receiver copy is a fan-out regression; a
missing block is a behaviour change.  The same point run under the hop
oracle (``tests/oracles/sim.py``: every hop and CPU dispatch queued)
must execute exactly the baseline's ``hop_oracle_events_executed`` and
play the same blocks.
"""

import json
import time
from pathlib import Path

from repro.audio import AudioEncoding, AudioParams, music
from repro.core import EthernetSpeakerSystem
from repro.metrics import ascii_table
from tests.oracles.sim import HopOracle

PARAMS = AudioParams(AudioEncoding.SLINEAR16, 22050, 1)
SWEEP = [(4, 2.0), (16, 2.0), (64, 2.0), (64, 10.0)]
HEADLINE = (64, 10.0)

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_fanout.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_fanout_baseline.json"


def run_fanout(speakers, stream_seconds):
    system = EthernetSpeakerSystem(telemetry=False)
    producer = system.add_producer()
    channel = system.add_channel("bench", params=PARAMS, compress="always")
    system.add_rebroadcaster(producer, channel)
    for _ in range(speakers):
        system.add_speaker(channel=channel)
    system.play_pcm(
        producer, music(stream_seconds, PARAMS.sample_rate, seed=3), PARAMS
    )
    start = time.perf_counter()
    system.run(until=stream_seconds + 4.0)
    wall = time.perf_counter() - start
    played = sum(n.stats.played for n in system.speakers)
    packets = sum(rb.stats.data_sent for rb in system.rebroadcasters)
    return {
        "speakers": speakers,
        "stream_seconds": stream_seconds,
        "wall_seconds": round(wall, 4),
        "wall_per_sim_second": round(wall / stream_seconds, 4),
        "events_executed": system.sim.events_executed,
        "events_per_sec": int(system.sim.events_executed / wall),
        "packets_sent": packets,
        "packets_per_sec": int(packets / wall),
        "blocks_played": played,
    }


def test_fanout_scale_and_regression_gate(monkeypatch):
    sweep = [run_fanout(n, secs) for n, secs in SWEEP]
    fast = next(
        r for r in sweep
        if (r["speakers"], r["stream_seconds"]) == HEADLINE
    )
    result = {
        "params": {
            "encoding": str(PARAMS.encoding.name),
            "sample_rate": PARAMS.sample_rate,
            "channels": PARAMS.channels,
            "compress": "always",
        },
        "sweep": sweep,
        "headline": {
            "speakers": HEADLINE[0],
            "stream_seconds": HEADLINE[1],
            "fast": fast,
        },
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print()
    print(ascii_table(
        ["speakers", "sim s", "wall s", "wall/sim s", "events/s",
         "packets/s"],
        [[r["speakers"], r["stream_seconds"], r["wall_seconds"],
          r["wall_per_sim_second"], r["events_per_sec"],
          r["packets_per_sec"]]
         for r in sweep],
    ))

    base = json.loads(BASELINE_PATH.read_text())["headline"]["fast"]
    print(f"headline: {fast['events_executed']} events, "
          f"{fast['blocks_played']} blocks played (baseline "
          f"{base['events_executed']}, {base['blocks_played']})")
    assert fast["blocks_played"] == base["blocks_played"] > 0
    assert fast["events_executed"] == base["events_executed"], (
        f"fan-out at {HEADLINE[0]} speakers x {HEADLINE[1]} s executed "
        f"{fast['events_executed']} events, baseline "
        f"{base['events_executed']}"
    )

    oracle = HopOracle().install(monkeypatch)
    hops = run_fanout(*HEADLINE)
    print(f"hop oracle: {hops['events_executed']} events, "
          f"{oracle.removable} of them skipped by the runtime")
    assert hops["blocks_played"] == fast["blocks_played"]
    assert hops["events_executed"] == base["hop_oracle_events_executed"]
    assert (hops["events_executed"]
            == fast["events_executed"] + oracle.removable)
