"""Differential harness: a vectorized cohort fleet must be bit-identical
to the per-object fleet it stands in for.

Every scenario builds the same deployment twice on the same seeds — once
with ``add_speaker_cohort`` (one exemplar standing for every member +
mid-stream spills that copy its live state) and once with the per-object
oracle ``tests/oracles/fleet.py`` (N real ``add_speaker`` nodes behind
the same member API) — and asserts that every member's playout
(``play_log``, ``write_offsets``), every ``SpeakerStats`` counter, and
the channel/pipeline ledgers agree exactly.

Host-side-only quantities are excluded from the ledger comparison: the
decode cache sees different request streams (one exemplar vs N nodes),
fan-out batching is a host optimisation, and the cohort_* telemetry rows
exist only on the cohort side.  Everything the virtual world can observe
must match.
"""

import dataclasses
import tracemalloc

import pytest

from repro.audio.params import CD_QUALITY
from repro.core import EthernetSpeakerSystem
from tests.oracles.fleet import add_object_fleet

MEMBERS = 6
STREAM_SECONDS = 3.0
HORIZON = 9.0

#: PipelineReport fields and kind rows that describe simulated reality
#: (must match), as opposed to host-side bookkeeping (may differ by
#: construction)
PIPELINE_FIELDS = (
    "underruns", "silence_seconds", "injected_pending", "rejoins",
    "max_rejoin_gap", "wan_lost_deliveries", "wan_extra_deliveries",
)
PIPELINE_KINDS = ("speaker", "segment", "lan_faults", "failover")


def add_fleet(system, cohort, channel, members, **speaker_kwargs):
    if cohort:
        return system.add_speaker_cohort(channel, members, **speaker_kwargs)
    return add_object_fleet(system, channel, members, **speaker_kwargs)


#: the stream's block period (CD_QUALITY filler, source-paced)
BLOCK_SECONDS = 0.065


#: scenarios that make the fleet's own LAN lossy or jittery, so the
#: cohort seat's per-member wire draws diverge members
LAN_SCENARIOS = {
    "lan-loss": {"loss_rate": 0.03},
    "lan-jitter": {"jitter": 0.002},
}


def build(cohort, scenario, seed, crash_at=None, **speaker_kwargs):
    system = EthernetSpeakerSystem(seed=seed,
                                   **LAN_SCENARIOS.get(scenario, {}))
    producer = system.add_producer()
    channel = system.add_channel("hall", params=CD_QUALITY)
    rb = system.add_rebroadcaster(producer, channel, control_interval=0.5)
    if scenario == "crash-failover":
        system.add_standby(producer, channel, takeover_timeout=1.0,
                           check_interval=0.2, control_interval=0.5)
    if scenario.startswith("leaf-lan"):
        # the fleet listens one (or two) lossy WAN relay tiers down, on a
        # leaf LAN with its own bursty loss
        relay = system.add_relay(rb, loss_rate=0.05)
        if scenario == "leaf-lan-two-tiers":
            relay = system.add_relay(relay, loss_rate=0.05)
        leaf = system.add_leaf_lan(relay, channel)
        system.inject_faults(link=leaf.segment, loss_rate=0.05,
                             burst_length=3, seed=seed + 100)
        speaker_kwargs["lan"] = leaf
    fleet = add_fleet(system, cohort, channel, MEMBERS, **speaker_kwargs)
    if scenario == "ge-loss-dup-reorder":
        system.inject_faults(loss_rate=0.05, burst_length=3,
                             duplicate_rate=0.02, reorder_rate=0.03,
                             reorder_window=4, seed=seed + 100)
    elif scenario == "corruption":
        system.inject_faults(corrupt_rate=0.04, seed=seed + 100)
    system.play_synthetic(producer, STREAM_SECONDS, CD_QUALITY,
                          source_paced=True)
    if scenario == "crash-failover":
        system.schedule_fault(rb, after=1.2, kind="crash")
        # one member crashes and cold-restarts mid-stream: the spill
        # carries seq window, ring offset and ledger into a full speaker
        system.schedule_fault(fleet.tokens[2], after=1.5, kind="crash",
                              restart_after=0.8)
    if crash_at is not None:
        system.schedule_fault(fleet.tokens[2], after=crash_at, kind="crash",
                              restart_after=0.8)
    system.run(until=HORIZON)
    return system, fleet


def assert_fleets_identical(cohort_fleet, object_fleet):
    for i in range(MEMBERS):
        a = cohort_fleet.member_stats(i)
        b = object_fleet.member_stats(i)
        assert cohort_fleet.member_play_log(i) == \
            object_fleet.member_play_log(i), f"member {i} playout differs"
        assert cohort_fleet.member_write_offsets(i) == \
            object_fleet.member_write_offsets(i), \
            f"member {i} device offsets differ"
        for f in dataclasses.fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), \
                f"member {i} stats.{f.name}: " \
                f"{getattr(a, f.name)!r} != {getattr(b, f.name)!r}"


def assert_ledgers_identical(report_a, report_b):
    assert len(report_a.channels) == len(report_b.channels)
    for ca, cb in zip(report_a.channels, report_b.channels):
        assert ca == cb, f"channel ledger differs:\n{ca}\n{cb}"
    for f in PIPELINE_FIELDS:
        assert getattr(report_a, f) == getattr(report_b, f), \
            f"pipeline.{f}: {getattr(report_a, f)!r} != " \
            f"{getattr(report_b, f)!r}"
    for kind in PIPELINE_KINDS:
        row_a, row_b = report_a.stats.get(kind), report_b.stats.get(kind)
        assert row_a == row_b, f"pipeline {kind}: {row_a} != {row_b}"
    assert report_a.conservation_residual == report_b.conservation_residual
    assert report_a.conservation_ok and report_b.conservation_ok


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("scenario", [
    "clean", "ge-loss-dup-reorder", "corruption", "crash-failover",
    "leaf-lan", "leaf-lan-two-tiers", "lan-loss", "lan-jitter",
])
def test_cohort_matches_per_object_fleet(scenario, seed):
    sys_cohort, fleet_cohort = build(True, scenario, seed)
    sys_object, fleet_object = build(False, scenario, seed)
    assert_fleets_identical(fleet_cohort, fleet_object)
    report = sys_cohort.pipeline_report()
    assert_ledgers_identical(report, sys_object.pipeline_report())
    if scenario.startswith("leaf-lan"):
        # the relays' loss budgets weigh the cohort's members
        assert report.wan_lost_deliveries > 0
    if scenario in LAN_SCENARIOS:
        # the wire's own draws diverged members, which spilled
        assert fleet_cohort.spills > 0


@pytest.mark.parametrize("step", range(8))
def test_member_crash_during_playout_matches_per_object_fleet(step):
    """A member crashes and cold-restarts while audio is flowing, at eight
    instants spread over one block period: its clone copies the
    exemplar's live state at the fault instant, so the crashed member and
    everyone else stay bit-identical to the per-object fleet."""
    crash_at = 1.3 + step * BLOCK_SECONDS / 8
    sys_cohort, fleet_cohort = build(True, "clean", 7, crash_at=crash_at)
    sys_object, fleet_object = build(False, "clean", 7, crash_at=crash_at)
    assert fleet_cohort.spills == 1
    assert fleet_cohort.member_stats(2).rejoin_gaps
    assert_fleets_identical(fleet_cohort, fleet_object)
    assert_ledgers_identical(sys_cohort.pipeline_report(),
                             sys_object.pipeline_report())


def test_cohort_member_costs_under_500_bytes():
    """A member that mirrors the exemplar is a token and nothing else: no
    per-member copies of the exemplar's state."""
    members = 50_000
    system = EthernetSpeakerSystem(seed=7)
    channel = system.add_channel("hall", params=CD_QUALITY)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cohort = system.add_speaker_cohort(channel, members)
        cost = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cohort.tokens) == members
    assert cost / members < 500, f"{cost / members:.0f} B per member"


@pytest.mark.parametrize("seed", [7, 23])
def test_detach_mid_stream_matches_per_object_fleet(seed):
    """Tearing the injector down while member copies are parked for
    reordering (and a shared batch is in flight) flushes the holdback
    identically on both sides: every flushed copy lands once, the drop
    counters don't double-count, and the fleets stay bit-identical."""

    def run(cohort):
        system = EthernetSpeakerSystem(seed=seed)
        producer = system.add_producer()
        channel = system.add_channel("hall", params=CD_QUALITY)
        system.add_rebroadcaster(producer, channel, control_interval=0.5)
        fleet = add_fleet(system, cohort, channel, MEMBERS)
        inj = system.inject_faults(reorder_rate=0.15, reorder_window=8,
                                   reorder_hold=30.0, loss_rate=0.03,
                                   burst_length=2.0, seed=seed + 100)
        system.play_synthetic(producer, STREAM_SECONDS, CD_QUALITY,
                              source_paced=True)
        system.sim.schedule(1.25, system.remove_faults, inj)
        system.run(until=HORIZON)
        return system, fleet, inj

    sys_cohort, fleet_cohort, inj_cohort = run(True)
    sys_object, fleet_object, inj_object = run(False)
    assert inj_cohort.stats.flushed > 0
    assert inj_cohort.stats == inj_object.stats
    assert inj_cohort.pending == inj_object.pending == 0
    assert_fleets_identical(fleet_cohort, fleet_object)
    assert_ledgers_identical(sys_cohort.pipeline_report(),
                             sys_object.pipeline_report())


def test_clean_run_stays_vectorized():
    """No fault ever fires: nobody spills, and N-1 of every N delivery
    events are saved."""
    _, fleet = build(True, "clean", seed=7)
    assert fleet.spills == 0
    assert fleet.aligned == MEMBERS
    assert fleet.events_saved > 0


def test_faulty_run_spills_mid_stream():
    """Per-receiver fates actually exercised the spill path: some members
    became full speakers mid-stream, the rest stayed tokens."""
    _, fleet = build(True, "ge-loss-dup-reorder", seed=7)
    assert 0 < fleet.spills <= MEMBERS
    assert fleet.events_saved > 0


def test_crash_spill_is_exact_mid_stream():
    """The crashed member's clone carries the ledger at the fault instant:
    play resumes after restart and the rejoin gap is recorded."""
    _, fleet = build(True, "crash-failover", seed=7)
    stats = fleet.member_stats(2)
    assert stats.rejoin_gaps, "restarted member never rejoined"
    assert fleet.tokens[2].spilled


def test_cohort_telemetry_rows():
    system, fleet = build(True, "ge-loss-dup-reorder", seed=7)
    report = system.pipeline_report()
    assert report.cohort_members == MEMBERS
    assert report.cohort_spills == fleet.spills > 0
    assert report.cohort_events_saved == fleet.events_saved > 0
    text = report.summary()
    assert "cohort members" in text and "cohort spills" in text


@pytest.mark.parametrize("override", ["decode_cache", "telemetry"])
def test_cohort_takes_add_speaker_overrides(override):
    """``add_speaker_cohort`` accepts ``add_speaker``'s per-node
    ``decode_cache=None``/``telemetry=None`` overrides (they used to
    collide with the cohort's own keywords): the exemplar and every
    spilled clone take them, and playout is bit-identical to the
    default cohort."""
    _, default = build(True, "ge-loss-dup-reorder", seed=7)
    system, fleet = build(True, "ge-loss-dup-reorder", seed=7,
                          **{override: None})
    assert fleet.spills > 0
    assert_fleets_identical(fleet, default)
    if override == "decode_cache":
        # nobody in the run decoded through the shared cache
        stats = system.decode_cache.stats
        assert stats.hits == stats.misses == 0
