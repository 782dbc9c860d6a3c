"""Telemetry on a composed run: it observes, and its counters are the stats.

One scenario exercises every component that registers counters: an
origin feeding a relay over a ``fec+nack`` WAN hop with injected faults,
a faulty leaf LAN, a lossy main LAN under a speaker cohort (so members
spill), a primary producer that crashes under a warm standby, a
supervised listener that crashes and is restarted, and a fleet
controller on the management segment.

* **on ≡ off**: the same seed gives the same virtual end time, event
  count, play logs and ``pipeline_report()`` counts with telemetry on or
  off;
* **one source of truth**: with telemetry on, ``tel.total("kind.field")``
  is exactly the sum of ``field`` over the components of that kind, and
  no other counter exists;
* **one row per kind**: each ``pipeline_report().stats`` row is the
  field-wise sum of its components' stats dataclasses, and equals the
  telemetry totals of the kind registered under the same dataclass.
"""

from dataclasses import asdict, fields

import pytest

from repro.audio import AudioEncoding, AudioParams, music
from repro.core import EthernetSpeakerSystem
from repro.core.cohort import SPILLED

NARROW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)
WAN_FAULTS = dict(loss_rate=0.05, burst_length=2.0, duplicate_rate=0.01,
                  reorder_rate=0.01, corrupt_rate=0.005, seed=11)


def _composed(telemetry: bool) -> EthernetSpeakerSystem:
    system = EthernetSpeakerSystem(seed=5, telemetry=telemetry)
    # origin -> relay (fec+nack, WAN faults) -> faulty leaf LAN
    origin = system.add_producer(name="origin")
    relayed = system.add_channel("relayed", params=NARROW, compress="never")
    rb = system.add_rebroadcaster(origin, relayed, control_interval=0.5)
    relay = system.add_relay(rb, name="regional", recovery="fec+nack",
                             fec_k=4, fec_r=2, fec_interleave=2,
                             wan_faults=WAN_FAULTS)
    leaf = system.add_leaf_lan(relay, relayed, name="leaf")
    system.inject_faults(link=leaf.segment, name="leaf", seed=12,
                         loss_rate=0.01, burst_length=2.0)
    system.add_speaker(channel=relayed, lan=leaf)
    system.add_speaker(channel=relayed)
    # a lossy main LAN makes cohort members draw divergent fates and spill
    system.inject_faults(name="lan", seed=13, loss_rate=0.01)
    system.add_speaker_cohort(relayed, 20)
    system.play_pcm(origin, music(4.0, 8000, seed=1), NARROW)
    # primary + warm standby, a supervised listener, a controller
    live_src = system.add_producer(name="live")
    live = system.add_channel("live", params=NARROW, compress="always")
    primary = system.add_rebroadcaster(live_src, live, control_interval=0.5)
    system.add_standby(live_src, live, takeover_timeout=1.0,
                       check_interval=0.2, control_interval=0.5)
    listener = system.add_speaker(channel=live)
    system.advertise_speaker(listener, valid_time=0.5, interval=0.1)
    supervisor = system.add_supervisor(heartbeat_interval=0.2)
    system.supervise(supervisor, listener)
    system.add_controller(check_interval=0.1, supervisor=supervisor)
    system.play_pcm(live_src, music(4.0, 8000, seed=2), NARROW)
    system.schedule_fault(primary, after=1.5, kind="crash")
    system.schedule_fault(listener, after=2.5, kind="crash")
    system.run(until=7.0)
    return system


@pytest.fixture(scope="module")
def on():
    return _composed(telemetry=True)


@pytest.fixture(scope="module")
def off():
    return _composed(telemetry=False)


def _speakers(system):
    """Every receiving speaker: nodes, cohort exemplars, spilled clones."""
    out = [n.speaker for n in system.speakers]
    for cohort in system.cohorts:
        out.append(cohort.exemplar)
        out += [t.node for t in cohort.tokens if t.state == SPILLED]
    return out


def _play_logs(system):
    logs = [sp.stats.play_log for sp in _speakers(system)]
    for cohort in system.cohorts:
        logs += [cohort.member_stats(i).play_log
                 for i in range(cohort.members)]
    return logs


def _report_counts(system) -> dict:
    """``pipeline_report()`` minus what telemetry itself measures (the
    histogram snapshots and the trace event count)."""
    return {k: v for k, v in asdict(system.pipeline_report()).items()
            if (k == "stats" or not isinstance(v, dict))
            and k != "trace_events"}


def _kind_sources(system) -> dict:
    """Report kind -> the stats objects its row must sum, gathered here
    independently of ``pipeline_report``."""
    hops = system.wan_hops
    speakers = [n.speaker.stats for n in system.speakers]
    for cohort in system.cohorts:
        speakers += [cohort.member_stats(i) for i in range(cohort.members)]
    return {
        "speaker": speakers,
        "segment": [l.stats for l in system.lans],
        "lan_faults": [f.stats for f in system.fault_injectors],
        "wan_link": [h.link.stats for h in hops],
        "wan_hop": [h.stats for h in hops],
        "wan_faults": [f.stats for f in system.wan_fault_injectors],
        "fec": [h.fec for h in hops],
        "relay": [r.stats for r in system.relays],
        "failover": [s.stats for s in system.standbys],
        "supervisor": [s.stats for s in system.supervisors],
        "controller": [c.stats for c in system.controllers],
        "advertiser": [a.stats for a in system.advertisers],
        "decode_cache": [system.decode_cache.stats],
        "encode_cache": [system.encode_cache.stats],
    }


#: report kind -> the telemetry kind registered under the same dataclass
TELEMETRY_KINDS = {
    "wan_link": "wan",
    "relay": "relay",
    "failover": "failover",
    "controller": "ctl",
    "advertiser": "adp",
    "decode_cache": "codec.cache",
    "encode_cache": "codec.encode_cache",
}


def test_scenario_exercises_every_counted_component(on):
    rep = on.pipeline_report()
    # every kind has a component, and every row counted something
    assert set(rep.stats) == set(_kind_sources(on))
    for kind, row in rep.stats.items():
        assert any(getattr(row, f) for f in _int_fields(row)), kind
    assert rep.stats["failover"].takeovers == 1
    assert rep.cohort_spills > 0
    assert rep.stats["supervisor"].restarts > 0
    assert rep.stats["fec"].repaired > 0
    assert rep.stats["wan_hop"].nacks_sent > 0
    assert rep.stats["lan_faults"].lost > 0
    assert rep.stats["wan_faults"].lost > 0
    assert rep.stats["advertiser"].advertises > 0
    assert rep.conservation_ok


def test_kind_rows_are_component_sums(on):
    rep = on.pipeline_report()
    for kind, objs in _kind_sources(on).items():
        row = rep.stats[kind]
        assert all(type(o) is type(row) for o in objs), kind
        for field in _int_fields(row):
            assert getattr(row, field) == sum(
                getattr(o, field) for o in objs), f"{kind}.{field}"


def test_kind_rows_equal_telemetry_totals(on):
    tel, rep = on.telemetry, on.pipeline_report()
    for kind, tel_kind in TELEMETRY_KINDS.items():
        row = rep.stats[kind]
        for field in _int_fields(row):
            assert tel.total(f"{tel_kind}.{field}") == getattr(row, field), \
                f"{kind}.{field}"
    lan, wan = rep.stats["lan_faults"], rep.stats["wan_faults"]
    for field in _int_fields(lan):
        assert tel.total(f"faults.{field}") == \
            getattr(lan, field) + getattr(wan, field), field


def test_report_perfbench_properties_read_the_rows(on):
    rep = on.pipeline_report()
    assert (rep.wan_sent, rep.wan_lost, rep.wan_retransmits) == (
        rep.stats["wan_link"].sent, rep.stats["wan_link"].lost,
        rep.stats["wan_link"].retransmits)
    assert rep.wan_injected_losses == rep.stats["wan_faults"].lost
    assert rep.wan_nacks == rep.stats["wan_hop"].nacks_sent
    assert rep.failovers == rep.stats["failover"].takeovers
    assert rep.adp_advertises == rep.stats["advertiser"].advertises
    assert rep.adp_expiries == rep.stats["controller"].expiries
    assert rep.adp_departs == rep.stats["controller"].departs


def test_telemetry_on_equals_off(on, off):
    assert on.sim.now == off.sim.now
    assert on.sim.events_executed == off.sim.events_executed
    assert _play_logs(on) == _play_logs(off)
    assert _report_counts(on) == _report_counts(off)
    assert off.telemetry.counters == {}


def _int_fields(stats):
    return [f.name for f in fields(stats) if f.type in (int, "int")]


def test_counter_totals_are_component_sums(on):
    tel = on.telemetry
    speakers = _speakers(on)
    groups = {
        "speaker": [sp.stats for sp in speakers],
        "rebroadcaster": [rb.stats for rb in on.rebroadcasters],
        "failover": [s.stats for s in on.standbys],
        "faults": [f.stats
                   for f in on.fault_injectors + on.wan_fault_injectors],
        "relay": [r.stats for r in on.relays],
        "ctl": [c.stats for c in on.controllers],
        "adp": [a.stats for a in on.advertisers],
        "supervisor": [h for s in on.supervisors for h in s.nodes.values()],
        "codec.cache": [on.decode_cache.stats],
        "codec.encode_cache": [on.encode_cache.stats],
        "wan": [h.link.stats for h in on.wan_hops],
    }
    expected = {}
    for kind, objs in groups.items():
        for field in _int_fields(objs[0]):
            expected[f"{kind}.{field}"] = sum(getattr(o, field) for o in objs)
    devices = [sp.machine.devices["/dev/audio"] for sp in speakers]
    for field in ("underruns", "hiwat_blocks"):
        expected[f"audio.{field}"] = sum(getattr(d, field) for d in devices)
    expected["net.frames"] = on.monitor.frames
    expected["net.wire_bytes"] = on.monitor.total_wire_bytes
    expected["sim.events"] = on.sim.events_executed

    assert {name.split("[")[0] for name in tel.counters} == set(expected)
    assert {m: tel.total(m) for m in expected} == expected
    assert expected["speaker.played"] > 0
