"""WAN RELAY TREE — tandem-free fan-out must stay cheap as the tree grows.

A relay re-multicasts the compressed wire image without decoding it
(zero-copy parse of the 12-byte header, then forward), so adding a tier
or a leaf LAN should cost wire events, not codec work.  This benchmark
sweeps regional relays × leaf LANs per relay — the headline point is the
ISSUE's baseline topology, origin → 2 regional relays → 4 leaf LANs —
and emits ``BENCH_wan.json``.

The regression gate is host-independent: simulator **events per played
block** is deterministic per seed, so it is compared directly against
the committed ``benchmarks/BENCH_wan_baseline.json`` with a 25 %
allowance.  Every run must also close the conservation ledger and play
audio on every leaf.
"""

import json
import time
from pathlib import Path

from repro.audio import AudioEncoding, AudioParams, music
from repro.core import EthernetSpeakerSystem
from repro.metrics import ascii_table

PARAMS = AudioParams(AudioEncoding.SLINEAR16, 22050, 1)
STREAM_SECONDS = 8.0
SPEAKERS_PER_LEAF = 2

#: (regional relays, leaf LANs per relay)
SWEEP = [(1, 1), (1, 2), (2, 1), (2, 2)]
HEADLINE = (2, 2)  # origin -> 2 relays -> 4 leaf LANs
MAX_EVENTS_REGRESSION = 1.25

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_wan.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_wan_baseline.json"


def run_tree(regionals, leaves_per_relay):
    system = EthernetSpeakerSystem(seed=1, telemetry=False)
    producer = system.add_producer()
    channel = system.add_channel("bench", params=PARAMS, compress="always")
    rb = system.add_rebroadcaster(producer, channel)
    leaf_speakers = []
    for r in range(regionals):
        relay = system.add_relay(rb, name=f"regional{r}", latency=0.030)
        for l in range(leaves_per_relay):
            leaf = system.add_leaf_lan(relay, channel, name=f"leaf{r}.{l}")
            leaf_speakers.append([
                system.add_speaker(channel=channel, lan=leaf)
                for _ in range(SPEAKERS_PER_LEAF)
            ])
    system.play_pcm(
        producer, music(STREAM_SECONDS, PARAMS.sample_rate, seed=3), PARAMS
    )
    start = time.perf_counter()
    system.run(until=STREAM_SECONDS + 4.0)
    wall = time.perf_counter() - start

    played = sum(n.stats.played for lan in leaf_speakers for n in lan)
    for lan in leaf_speakers:
        for node in lan:
            assert node.stats.played > 0, "a leaf speaker never played"
    report = system.pipeline_report()
    assert report.conservation_ok, (
        f"ledger open at {regionals}x{leaves_per_relay}: "
        f"residual={report.conservation_residual}"
    )
    forwarded = sum(r.stats.forwarded for r in system.relays)
    return {
        "regionals": regionals,
        "leaf_lans": regionals * leaves_per_relay,
        "speakers": regionals * leaves_per_relay * SPEAKERS_PER_LEAF,
        "stream_seconds": STREAM_SECONDS,
        "wall_seconds": round(wall, 4),
        "events_executed": system.sim.events_executed,
        "blocks_played": played,
        # host-independent cost metric: deterministic per seed
        "events_per_played": round(system.sim.events_executed / played, 2),
        "relay_forwarded": forwarded,
        "wan_sent": report.stats["wan_link"].sent,
        "wan_delivered": report.stats["wan_link"].delivered,
    }


def test_wan_tree_scale_and_regression_gate():
    sweep = [run_tree(r, l) for r, l in SWEEP]
    headline = next(
        r for r in sweep
        if (r["regionals"], r["leaf_lans"] // r["regionals"]) == HEADLINE
    )

    result = {
        "params": {
            "encoding": str(PARAMS.encoding.name),
            "sample_rate": PARAMS.sample_rate,
            "channels": PARAMS.channels,
            "compress": "always",
            "speakers_per_leaf": SPEAKERS_PER_LEAF,
        },
        "sweep": sweep,
        "headline": headline,
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print()
    print(ascii_table(
        ["relays", "leaf LANs", "speakers", "wall s", "events",
         "events/played", "forwarded"],
        [[r["regionals"], r["leaf_lans"], r["speakers"], r["wall_seconds"],
          r["events_executed"], r["events_per_played"],
          r["relay_forwarded"]]
         for r in sweep],
    ))

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        base = baseline["headline"]["events_per_played"]
        limit = base * MAX_EVENTS_REGRESSION
        measured = headline["events_per_played"]
        print(f"events/played: {measured:.2f} "
              f"(baseline {base:.2f}, limit {limit:.2f})")
        assert measured <= limit, (
            f"relay-tree event cost regressed >25% vs baseline: "
            f"{measured:.2f} events per played block > {limit:.2f}"
        )
