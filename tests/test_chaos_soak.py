"""Chaos soak: node crashes composed with wire faults, many seeds.

Every scenario in the matrix — crash the primary producer, crash a
speaker, crash both, each with and without the PR 2 wire fault injector
running — must end the same way:

* **playback resumes** on every speaker before the stream ends;
* the **silence gap is bounded**: takeover timeout (or the restart
  delay) plus control cadence, watchdog granularity, and one playout
  buffer of depth — never an unbounded outage;
* the **conservation ledger closes** across the epoch boundary, wire
  faults itemised;
* the whole run is **deterministic per seed** — two executions of the
  same scenario produce bit-identical playout logs.

Set ``CHAOS_SOAK_REPORT=<path>`` to dump a per-scenario JSON report of
the measured rejoin gaps (the CI ``chaos-soak`` job uploads it as an
artifact).
"""

import json
import os

import pytest

from repro.audio import AudioEncoding, AudioParams
from repro.core import EthernetSpeakerSystem

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)

CONTROL_IVL = 0.5
TAKEOVER = 1.0
CHECK = 0.2
SPEAKER_RESTART = 1.0
DURATION = 14.0
HORIZON = 13.5      # stay inside the live stream (controls stop with it)
CRASH_PRIMARY_AT = 4.0
CRASH_SPEAKER_AT = 5.0

#: worst admissible silence per fault class: decision latency + one
#: control interval to re-anchor (doubled under wire loss) + playout
#: buffering + scheduling margin
PLAYOUT = 0.400
JITTER = 0.3
GAP_BOUND = {
    "primary": TAKEOVER + CHECK + 2 * CONTROL_IVL + PLAYOUT + 0.25,
    "speaker": SPEAKER_RESTART + 2 * CONTROL_IVL + PLAYOUT + 0.25,
    # overlapping outages compound: a speaker that died while the
    # channel was already silent stays quiet from the *primary's* crash
    # until its own restart has re-anchored
    "both": (CRASH_SPEAKER_AT - CRASH_PRIMARY_AT) + 2 * JITTER
            + SPEAKER_RESTART + 2 * CONTROL_IVL + PLAYOUT + 0.25,
}

MODES = ("primary", "speaker", "both")
SEEDS = (1, 2, 3, 4)
SCENARIOS = [
    (mode, wire, seed)
    for mode in MODES for wire in (False, True) for seed in SEEDS
]
assert len(SCENARIOS) >= 20

_report_rows = []


def run_scenario(mode, wire, seed):
    system = EthernetSpeakerSystem(seed=seed)
    producer = system.add_producer()
    channel = system.add_channel("soak", params=LOW, compress="never")
    rb = system.add_rebroadcaster(
        producer, channel, control_interval=CONTROL_IVL
    )
    standby = system.add_standby(
        producer, channel, takeover_timeout=TAKEOVER, check_interval=CHECK,
        control_interval=CONTROL_IVL,
    )
    nodes = [system.add_speaker(channel=channel) for _ in range(3)]
    if wire:
        system.inject_faults(
            loss_rate=0.02, burst_length=3.0, duplicate_rate=0.01,
            reorder_rate=0.02, reorder_window=4, seed=seed,
        )
    system.play_synthetic(producer, DURATION, LOW)
    if mode in ("primary", "both"):
        system.schedule_fault(rb, after=CRASH_PRIMARY_AT, kind="crash",
                              seed=seed, jitter=0.3)
    if mode in ("speaker", "both"):
        system.schedule_fault(nodes[0], after=CRASH_SPEAKER_AT,
                              kind="crash", restart_after=SPEAKER_RESTART,
                              seed=seed + 100, jitter=0.3)
    system.run(until=HORIZON)
    return system, standby, nodes


@pytest.mark.parametrize("mode,wire,seed", SCENARIOS)
def test_chaos_scenario(mode, wire, seed):
    system, standby, nodes = run_scenario(mode, wire, seed)
    gaps = []
    for node in nodes:
        st = node.stats
        # playback always resumes, well after the last fault
        assert st.play_log, f"{node.speaker.name} never played"
        assert st.play_log[-1][1] > CRASH_SPEAKER_AT + 4.0
        gaps.extend(st.rejoin_gaps)
    if mode in ("primary", "both"):
        assert standby.stats.takeovers == 1
        # a speaker that was down across the takeover first-anchors on
        # the new epoch from cold instead of resyncing — both are one
        # re-anchor, never two
        survivors = nodes[1:] if mode == "both" else nodes
        for node in survivors:
            assert node.stats.epoch_resyncs == 1
        assert nodes[0].stats.epoch_resyncs <= 1
    if mode in ("speaker", "both"):
        assert len(nodes[0].stats.rejoin_gaps) >= 1
    bound = GAP_BOUND[mode]
    for gap in gaps:
        assert gap <= bound, f"gap {gap:.3f}s exceeds bound {bound:.3f}s"
    report = system.pipeline_report()
    assert report.conservation_ok, (
        f"ledger open: residual={report.conservation_residual}"
    )
    _report_rows.append({
        "mode": mode, "wire_faults": wire, "seed": seed,
        "rejoin_gaps": [round(g, 6) for g in gaps],
        "max_gap": round(max(gaps, default=0.0), 6),
        "bound": round(bound, 6),
        "takeovers": standby.stats.takeovers,
        "conservation_residual": report.conservation_residual,
    })


# -- cohort fleets under the same chaos ---------------------------------------
#
# The vectorized SpeakerCohort must survive the identical fault matrix:
# members that draw faults spill into full per-object speakers mid-run,
# and the fleet as a whole keeps the same guarantees — playback resumes,
# rejoin gaps bounded, ledger closed, runs deterministic per seed.

COHORT_MEMBERS = 12
COHORT_SEEDS = (1, 2)
COHORT_SCENARIOS = [
    (mode, wire, seed)
    for mode in MODES for wire in (False, True) for seed in COHORT_SEEDS
]


def run_cohort_scenario(mode, wire, seed):
    system = EthernetSpeakerSystem(seed=seed)
    producer = system.add_producer()
    channel = system.add_channel("soak", params=LOW, compress="never")
    rb = system.add_rebroadcaster(
        producer, channel, control_interval=CONTROL_IVL
    )
    standby = system.add_standby(
        producer, channel, takeover_timeout=TAKEOVER, check_interval=CHECK,
        control_interval=CONTROL_IVL,
    )
    fleet = system.add_speaker_cohort(channel, COHORT_MEMBERS)
    if wire:
        system.inject_faults(
            loss_rate=0.02, burst_length=3.0, duplicate_rate=0.01,
            reorder_rate=0.02, reorder_window=4, seed=seed,
        )
    system.play_synthetic(producer, DURATION, LOW)
    if mode in ("primary", "both"):
        system.schedule_fault(rb, after=CRASH_PRIMARY_AT, kind="crash",
                              seed=seed, jitter=0.3)
    if mode in ("speaker", "both"):
        system.schedule_fault(fleet.tokens[0], after=CRASH_SPEAKER_AT,
                              kind="crash", restart_after=SPEAKER_RESTART,
                              seed=seed + 100, jitter=0.3)
    system.run(until=HORIZON)
    return system, standby, fleet


@pytest.mark.parametrize("mode,wire,seed", COHORT_SCENARIOS)
def test_cohort_chaos_scenario(mode, wire, seed):
    system, standby, fleet = run_cohort_scenario(mode, wire, seed)
    gaps = []
    for i in range(COHORT_MEMBERS):
        st = fleet.member_stats(i)
        assert st.play_log, f"cohort member {i} never played"
        assert st.play_log[-1][1] > CRASH_SPEAKER_AT + 4.0
        gaps.extend(st.rejoin_gaps)
    if mode in ("primary", "both"):
        assert standby.stats.takeovers == 1
        for i in range(1, COHORT_MEMBERS):
            assert fleet.member_stats(i).epoch_resyncs == 1
        assert fleet.member_stats(0).epoch_resyncs <= 1
    if mode in ("speaker", "both"):
        assert fleet.tokens[0].spilled
        assert len(fleet.member_stats(0).rejoin_gaps) >= 1
    bound = GAP_BOUND[mode]
    for gap in set(gaps):
        assert gap <= bound, f"gap {gap:.3f}s exceeds bound {bound:.3f}s"
    # faults spill, clean members stay vectorized: whoever drew a fate
    # (over a 14 s soak with wire faults, likely everyone) became a real
    # speaker, but the fast path still saved events while rows stayed
    # aligned; with no per-member fault source nobody spills at all
    if mode == "primary" and not wire:
        assert fleet.spills == 0
    assert fleet.spills <= COHORT_MEMBERS
    assert fleet.events_saved > 0
    report = system.pipeline_report()
    assert report.cohort_members == COHORT_MEMBERS
    assert report.cohort_spills == fleet.spills
    assert report.conservation_ok, (
        f"ledger open: residual={report.conservation_residual}"
    )


@pytest.mark.parametrize("mode", MODES)
def test_cohort_chaos_is_deterministic(mode):
    def fingerprint():
        _, standby, fleet = run_cohort_scenario(mode, wire=True, seed=2)
        return (
            [tuple(fleet.member_play_log(i)) for i in range(COHORT_MEMBERS)],
            [tuple(fleet.member_stats(i).rejoin_gaps)
             for i in range(COHORT_MEMBERS)],
            standby.stats.takeover_latencies,
            fleet.spills,
            fleet.events_saved,
        )

    assert fingerprint() == fingerprint()


@pytest.mark.parametrize("mode", MODES)
def test_chaos_is_deterministic(mode):
    """Bit-identical post-takeover playout across two runs of the same
    seeded scenario — the acceptance bar for reproducible chaos."""

    def fingerprint():
        _, standby, nodes = run_scenario(mode, wire=True, seed=2)
        return (
            [tuple(n.stats.play_log) for n in nodes],
            [tuple(n.stats.rejoin_gaps) for n in nodes],
            standby.stats.takeover_latencies,
        )

    assert fingerprint() == fingerprint()


# -- WAN relay tree under the same chaos ---------------------------------------
#
# Killing a regional relay mid-stream must leave its leaf LANs with a
# *bounded* playout hole, never an unbounded outage: with a local
# fallback source the edge relay fills within its cadence watchdog
# window; without one, the hole is bounded by the relay restart delay
# plus re-anchor cadence.  A sibling subtree that was never touched must
# sail through with zero resyncs and no holes at all.

RELAY_CRASH_AT = 4.0
RELAY_RESTART = 2.0
FB_TIMEOUT = 0.8
FB_CHECK = 0.2
RELAY_DURATION = 14.0
RELAY_HORIZON = 13.5

#: largest admissible hole in the leaf's played stream (positions are
#: producer stream time, so a hole is exactly the audio that never played)
RELAY_GAP_BOUND = {
    # fallback filler engages after the cadence watchdog fires, then one
    # control interval to re-anchor, plus playout depth + margin; the
    # stand-down resync is strictly cheaper
    True: FB_TIMEOUT + FB_CHECK + CONTROL_IVL + PLAYOUT + 0.25,
    # no fallback: silence spans the restart delay (with its jitter
    # window on both fault and recovery) plus re-anchor + playout
    False: RELAY_RESTART + 2 * JITTER + 2 * CONTROL_IVL + PLAYOUT + 0.25,
}

RELAY_SCENARIOS = [
    (fallback, seed) for fallback in (False, True) for seed in (1, 2, 3)
]


def run_relay_scenario(fallback, seed):
    system = EthernetSpeakerSystem(seed=seed)
    producer = system.add_producer()
    channel = system.add_channel("soak", params=LOW, compress="never")
    rb = system.add_rebroadcaster(
        producer, channel, control_interval=CONTROL_IVL
    )
    # victim subtree: regional relay (killed) -> edge relay -> leaf LAN
    regional = system.add_relay(rb, name="regional", latency=0.03)
    edge = system.add_relay(
        regional, name="edge", latency=0.01, fallback=fallback,
        fallback_timeout=FB_TIMEOUT, check_interval=FB_CHECK,
        control_interval=CONTROL_IVL,
    )
    victim_lan = system.add_leaf_lan(edge, channel, name="victim")
    victim = system.add_speaker(channel=channel, lan=victim_lan)
    # control subtree: an untouched sibling regional with its own leaf
    sibling = system.add_relay(rb, name="sibling", latency=0.03)
    control_lan = system.add_leaf_lan(sibling, channel, name="control")
    control = system.add_speaker(channel=channel, lan=control_lan)
    system.play_synthetic(producer, RELAY_DURATION, LOW)
    system.schedule_fault(regional, after=RELAY_CRASH_AT, kind="crash",
                          restart_after=RELAY_RESTART, seed=seed, jitter=JITTER)
    system.run(until=RELAY_HORIZON)
    return system, regional, edge, victim, control


def _stream_holes(stats):
    """Gaps in played stream time (the audio that never reached the DAC)."""
    positions = [play_at for play_at, _ in stats.play_log]
    return [b - a for a, b in zip(positions, positions[1:])]


@pytest.mark.parametrize("fallback,seed", RELAY_SCENARIOS)
def test_relay_kill_bounds_leaf_gap(fallback, seed):
    system, regional, edge, victim, control = run_relay_scenario(
        fallback, seed
    )
    assert regional.stats.restarts == 1
    # playback resumes on the victim leaf well after the outage window
    assert victim.stats.play_log, "victim leaf never played"
    assert victim.stats.play_log[-1][1] > RELAY_CRASH_AT + 2 * JITTER + \
        RELAY_RESTART + 2.0
    bound = RELAY_GAP_BOUND[fallback]
    holes = _stream_holes(victim.stats)
    worst = max(holes, default=0.0)
    assert worst <= bound, f"hole {worst:.3f}s exceeds bound {bound:.3f}s"
    if fallback:
        # filler engaged exactly once and stood down when the uplink
        # epoch reappeared; the victim re-anchored twice (onto the
        # fallback epoch, then back)
        assert edge.stats.fallbacks == 1
        assert edge.stats.standdowns == 1
        assert edge.stats.filler_data > 0
        assert victim.stats.epoch_resyncs == 2
        for gap in victim.stats.rejoin_gaps:
            assert gap <= bound
    else:
        assert edge.stats.fallbacks == 0
        assert victim.stats.epoch_resyncs == 0
    # the untouched sibling subtree never noticed
    assert control.stats.epoch_resyncs == 0
    assert not control.stats.rejoin_gaps
    assert max(_stream_holes(control.stats), default=0.0) <= PLAYOUT
    report = system.pipeline_report()
    assert report.conservation_ok, (
        f"ledger open: residual={report.conservation_residual}"
    )
    _report_rows.append({
        "mode": f"relay-kill/{'fallback' if fallback else 'no-fallback'}",
        "wire_faults": False, "seed": seed,
        "rejoin_gaps": [round(g, 6) for g in victim.stats.rejoin_gaps],
        "max_gap": round(worst, 6),
        "bound": round(bound, 6),
        "takeovers": edge.stats.fallbacks,
        "conservation_residual": report.conservation_residual,
    })


@pytest.mark.parametrize("fallback", (False, True))
def test_relay_kill_is_deterministic(fallback):
    def fingerprint():
        _, regional, edge, victim, control = run_relay_scenario(fallback, 2)
        return (
            tuple(victim.stats.play_log),
            tuple(victim.stats.rejoin_gaps),
            tuple(control.stats.play_log),
            edge.stats.fallbacks,
            edge.stats.filler_data,
            regional.stats.dropped_down,
        )

    assert fingerprint() == fingerprint()


# -- control-plane churn under the same chaos ----------------------------------
#
# The ATDECC-style control plane must keep its own guarantees when the
# entities it tracks misbehave: a zombie (advertise-then-crash, no
# ENTITY_DEPARTING) ages out of the registry within 2x valid_time; a
# listener that dies mid-ACMP-transaction costs a bounded, counted
# failure, never a hang; a controller restart mid-churn repopulates from
# live adverts and resurrects nothing dead; and a rebroadcaster crash
# detected by lease expiry drives exactly one supervisor restart even
# with heartbeats watching the same node.  Every scenario closes the
# audio ledger and fingerprints bit-identically across two same-seed runs.

CP_VALID = 1.0
CP_CHECK = 0.1
CP_MODES = ("zombie", "acmp-crash", "ctl-restart", "rb-zombie")
CP_SEEDS = (3, 11)
CP_SCENARIOS = [(mode, seed) for mode in CP_MODES for seed in CP_SEEDS]
assert len(CP_SCENARIOS) == 8


def run_churn_scenario(mode, seed):
    from repro.sim.process import Process, Sleep, WaitProcess

    system = EthernetSpeakerSystem(seed=seed)
    producer = system.add_producer()
    channel = system.add_channel("churn", params=LOW, compress="never")
    rb = system.add_rebroadcaster(
        producer, channel, control_interval=CONTROL_IVL
    )
    supervisor = system.add_supervisor(
        heartbeat_interval=0.25, restart_delay=0.25
    )
    nodes = [system.add_speaker(channel=channel) for _ in range(3)]
    advs = [
        system.advertise_speaker(n, valid_time=CP_VALID) for n in nodes
    ]
    system.advertise_rebroadcaster(rb, valid_time=CP_VALID)
    system.supervise(supervisor, rb)
    controller = system.add_controller(
        supervisor=supervisor, check_interval=CP_CHECK,
        txn_timeout=0.1, txn_retries=3,
    )
    expiries = {}
    controller.on_expired = lambda rec: expiries.setdefault(
        rec.name, system.sim.now
    )
    outcome = {}
    system.play_synthetic(producer, 8.0, LOW)

    if mode == "zombie":
        # advertise-then-crash, no goodbye: the lease is the only signal
        system.sim.schedule(3.0, nodes[0].speaker.crash)
        outcome["crash_at"] = 3.0
    elif mode == "acmp-crash":
        victim = system.add_speaker(channel=None, start=False,
                                    name="victim")
        system.advertise_speaker(victim, valid_time=CP_VALID)

        def driver():
            yield Sleep(3.0)
            victim.machine.cpu.halt()   # dies as the CONNECT is issued
            proc = system.connect_speaker(controller, victim, channel)
            outcome["connect_ok"] = yield WaitProcess(proc)

        Process.spawn(system.sim, driver(), name="churn-driver")
        outcome["crash_at"] = 3.0
    elif mode == "ctl-restart":
        # churn (one clean leave, one zombie), then the controller itself
        # bounces in the middle of it
        system.sim.schedule(2.0, advs[1].depart)
        system.sim.schedule(2.5, nodes[2].speaker.crash)
        system.sim.schedule(3.0, controller.crash)
        system.sim.schedule(3.5, controller.restart)
        outcome["crash_at"] = 2.5
    elif mode == "rb-zombie":
        # the talker dies silently mid-stream: lease expiry and missed
        # heartbeats race to notice; the latch keeps it to one restart
        system.sim.schedule(3.0, rb.crash)
        outcome["crash_at"] = 3.0

    system.run(until=7.5)
    return system, controller, supervisor, nodes, rb, expiries, outcome


def _churn_fingerprint(mode, seed):
    system, controller, supervisor, nodes, rb, expiries, outcome = \
        run_churn_scenario(mode, seed)
    stats = controller.stats
    return (
        tuple(tuple(n.stats.play_log) for n in nodes),
        tuple(sorted(expiries.items())),
        (stats.adp_advertises, stats.stale_adverts, stats.departs,
         stats.expiries, stats.acmp_connects, stats.acmp_retries,
         stats.acmp_failures, stats.restarts),
        (supervisor.stats.restarts, supervisor.stats.lease_expiries),
        rb.epoch,
        outcome.get("connect_ok"),
    ), (system, controller, supervisor, nodes, rb, expiries, outcome)


@pytest.mark.parametrize("mode,seed", CP_SCENARIOS)
def test_control_plane_churn_scenario(mode, seed):
    fp1, state = _churn_fingerprint(mode, seed)
    fp2, _ = _churn_fingerprint(mode, seed)
    assert fp1 == fp2, "same-seed churn runs diverged"
    system, controller, supervisor, nodes, rb, expiries, outcome = state

    if mode == "zombie":
        name = nodes[0].speaker.name
        assert name in expiries
        assert expiries[name] - outcome["crash_at"] <= 2 * CP_VALID
        # the untouched speakers never expire and keep playing
        for n in nodes[1:]:
            assert n.speaker.name not in expiries
            assert n.stats.play_log[-1][1] > outcome["crash_at"] + 2.0
    elif mode == "acmp-crash":
        assert outcome["connect_ok"] is False
        assert controller.stats.acmp_failures == 1
        assert controller.stats.acmp_retries == 2
        assert "victim" in expiries
        assert expiries["victim"] - outcome["crash_at"] <= 2 * CP_VALID
    elif mode == "ctl-restart":
        assert controller.stats.restarts == 1
        live = {rec.name for rec in controller.available()}
        # the survivor and the talker re-register from live adverts...
        assert nodes[0].speaker.name in live
        # ...the departed and the crashed stay dead through the bounce
        assert nodes[1].speaker.name not in live
        assert nodes[2].speaker.name not in live
    elif mode == "rb-zombie":
        assert supervisor.stats.restarts == 1          # never two
        assert supervisor.stats.lease_expiries <= 1
        assert rb.epoch > 0                            # restart bumped it
        # playback resumes on every speaker after the restart window
        for n in nodes:
            assert n.stats.play_log[-1][1] > outcome["crash_at"] + 2.0

    report = system.pipeline_report()
    assert report.conservation_ok, (
        f"ledger open: residual={report.conservation_residual}"
    )
    _report_rows.append({
        "mode": f"control-plane/{mode}", "wire_faults": False, "seed": seed,
        "rejoin_gaps": [],
        "max_gap": 0.0,
        "bound": 2 * CP_VALID,
        "takeovers": supervisor.stats.restarts,
        "conservation_residual": report.conservation_residual,
    })


# -- the WAN recovery ladder under the same chaos -------------------------------
#
# FEC on a hostile hop must degrade, never stall: GE bursts at or below
# repair capacity leave *zero* holes in the leaf's played stream (and,
# FEC-only, zero reverse traffic); bursts above capacity leave holes
# bounded by the abandon deadline and the burst geometry; corruption on
# the parity path is rejected at the parser and can never poison a
# repair; a relay crash mid-FEC-group restarts with an empty reassembler
# and a hole bounded by the restart window.  Every scenario closes the
# ledger and fingerprints bit-identically across two same-seed runs.

FEC_BLOCK = 0.065   # one VAD block of stream time per data frame
FEC_CFG = {
    # GE bursts the (r=2, interleave=2) geometry fully absorbs
    "below": dict(loss_rate=0.04, burst_length=2.0, fec_r=2,
                  fec_interleave=2),
    # bursts far beyond r=1: unrepairable groups become bounded holes
    "above": dict(loss_rate=0.30, burst_length=5.0, fec_r=1,
                  fec_interleave=1),
    # heavy corruption on the same wire the parity rides
    "parity-corrupt": dict(loss_rate=0.04, burst_length=2.0,
                           corrupt_rate=0.10, fec_r=2, fec_interleave=2),
}

#: largest admissible gap between consecutive played stream positions
#: (one block = contiguous playback)
FEC_GAP_BOUND = {
    "below": FEC_BLOCK + 0.01,           # no holes at all
    "above": 16 * FEC_BLOCK,             # longest credible abandoned run
    "parity-corrupt": 4 * FEC_BLOCK,     # lone corrupt-and-unlucky frames
    "relay-crash": RELAY_RESTART + 2 * JITTER + 2 * CONTROL_IVL
                   + PLAYOUT + 0.25,
}

FEC_SCENARIOS = [
    ("below", "fec"),
    ("below", "fec+nack"),
    ("above", "fec"),
    ("above", "fec+nack"),
    ("parity-corrupt", "fec"),
    ("relay-crash", "fec"),
]
FEC_SEEDS = (1, 2)


def run_fec_scenario(kind, recovery, seed):
    cfg = dict(FEC_CFG.get(kind, FEC_CFG["below"]))
    fec_r = cfg.pop("fec_r")
    fec_interleave = cfg.pop("fec_interleave")
    system = EthernetSpeakerSystem(seed=seed)
    producer = system.add_producer()
    channel = system.add_channel("soak", params=LOW, compress="never")
    rb = system.add_rebroadcaster(
        producer, channel, control_interval=CONTROL_IVL
    )
    regional = system.add_relay(
        rb, name="regional", latency=0.03, recovery=recovery,
        fec_k=4, fec_r=fec_r, fec_interleave=fec_interleave,
        wan_faults=dict(seed=seed + 40, **cfg),
    )
    edge = system.add_relay(regional, name="edge", latency=0.01)
    leaf = system.add_leaf_lan(edge, channel, name="leaf")
    spk = system.add_speaker(channel=channel, lan=leaf)
    system.play_synthetic(producer, RELAY_DURATION, LOW)
    if kind == "relay-crash":
        system.schedule_fault(regional, after=RELAY_CRASH_AT, kind="crash",
                              restart_after=RELAY_RESTART, seed=seed,
                              jitter=JITTER)
    system.run(until=RELAY_HORIZON)
    return system, regional, spk


@pytest.mark.parametrize("kind,recovery", FEC_SCENARIOS)
@pytest.mark.parametrize("seed", FEC_SEEDS)
def test_fec_ladder_scenario(kind, recovery, seed):
    system, regional, spk = run_fec_scenario(kind, recovery, seed)
    hop = system.wan_hops[0]
    inj = hop.link.faults.stats
    assert inj.lost > 0, "injector idle; scenario is vacuous"
    # playback runs to (nearly) the end of the stream — degradation
    # under fire, never a stall
    assert spk.stats.play_log, "leaf never played"
    assert spk.stats.play_log[-1][1] > 12.5
    bound = FEC_GAP_BOUND[kind]
    worst = max(_stream_holes(spk.stats), default=0.0)
    assert worst <= bound, f"hole {worst:.3f}s exceeds bound {bound:.3f}s"
    if kind == "below":
        # within capacity every loss repairs: no holes, and (FEC-only)
        # the reverse path stays silent
        assert hop.fec.repaired > 0
        assert hop.stats.abandoned == 0
        if recovery == "fec":
            assert hop.stats.nacks_sent == 0
            assert hop.link.retransmits == 0
    elif kind == "above":
        assert hop.stats.abandoned > 0      # holes exist and were bounded
        assert hop.fec.repaired > 0         # the repairable part repaired
    elif kind == "parity-corrupt":
        assert inj.corrupted > 0
        assert hop.stats.corrupt_dropped > 0  # parser rejected, counted
        assert hop.fec.repaired > 0           # intact parity still repairs
    elif kind == "relay-crash":
        assert regional.stats.restarts == 1
        assert hop.fec.repaired > 0
    report = system.pipeline_report()
    assert report.conservation_ok, (
        f"ledger open: residual={report.conservation_residual}"
    )
    _report_rows.append({
        "mode": f"fec-ladder/{kind}/{recovery}", "wire_faults": True,
        "seed": seed,
        "rejoin_gaps": [round(g, 6) for g in spk.stats.rejoin_gaps],
        "max_gap": round(worst, 6),
        "bound": round(bound, 6),
        "takeovers": 0,
        "conservation_residual": report.conservation_residual,
    })


@pytest.mark.parametrize("kind,recovery", FEC_SCENARIOS)
def test_fec_ladder_is_deterministic(kind, recovery):
    def fingerprint():
        system, regional, spk = run_fec_scenario(kind, recovery, 2)
        hop = system.wan_hops[0]
        return (
            tuple(spk.stats.play_log),
            hop.fec.repaired, hop.fec.unrepairable, hop.fec.parity_sent,
            hop.stats.abandoned, hop.stats.nacks_sent,
            hop.link.faults.stats.lost, hop.link.faults.stats.corrupted,
        )

    assert fingerprint() == fingerprint()


def teardown_module(module):
    path = os.environ.get("CHAOS_SOAK_REPORT")
    if path and _report_rows:
        with open(path, "w") as fh:
            json.dump({"scenarios": _report_rows}, fh, indent=2)
