"""End-to-end telemetry: conservation laws, latency, and the trace.

One telemetry-enabled run of the full pipeline (VAD -> rebroadcaster ->
multicast LAN -> speakers -> DAC) is shared by the tests here; each test
asserts one invariant from the ISSUE's acceptance list:

* **conservation**: every multicast delivery the producer paid for is at a
  speaker, in a drop counter, or still in flight — asserted through the
  telemetry *counters*, which read the component stats by name;
* the :class:`PipelineReport` has non-zero latency percentiles;
* the exported Chrome trace is valid JSON with the expected span names.
"""

import json

import pytest

from repro.audio import AudioEncoding, AudioParams, sine
from repro.core import EthernetSpeakerSystem
from repro.metrics.telemetry import Telemetry

PARAMS = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)
N_SPEAKERS = 3


def _run_system(loss_rate: float = 0.0, telemetry=True, seed: int = 7):
    system = EthernetSpeakerSystem(loss_rate=loss_rate, seed=seed,
                                   telemetry=telemetry)
    producer = system.add_producer()
    channel = system.add_channel("lobby", params=PARAMS, compress="never")
    system.add_rebroadcaster(producer, channel, control_interval=0.5)
    for _ in range(N_SPEAKERS):
        system.add_speaker(channel=channel)
    system.play_pcm(producer, sine(440, 6.0, 8000), PARAMS)
    # run well past the end of the 6 s stream: every data packet has been
    # delivered (or dropped) and the speakers have drained their sockets,
    # so the conservation ledger is settled (in_flight ~ 0)
    system.run(until=12.0)
    return system


@pytest.fixture(scope="module")
def lossless():
    return _run_system(loss_rate=0.0)


@pytest.fixture(scope="module")
def lossy():
    return _run_system(loss_rate=0.05)


# -- conservation, from the counters themselves ------------------------------


def test_counter_conservation_lossless(lossless):
    tel = lossless.telemetry
    sent = tel.total("rebroadcaster.data_sent")
    failures = tel.total("rebroadcaster.send_failures")
    received = tel.total("speaker.data_rx")
    assert sent > 0
    sock_drops = sum(n.speaker._sock.drops for n in lossless.speakers)
    in_flight = sum(n.speaker._sock.queued for n in lossless.speakers)
    assert sent * N_SPEAKERS == (
        received + sock_drops + in_flight + failures * N_SPEAKERS
    )


def test_counter_conservation_lossy_bounded_by_wire_losses(lossy):
    tel = lossy.telemetry
    sent = tel.total("rebroadcaster.data_sent")
    received = tel.total("speaker.data_rx")
    losses = lossy.lan.stats.receiver_losses
    assert losses > 0, "5% loss over thousands of copies must lose some"
    residual = sent * N_SPEAKERS - (
        received
        + sum(n.speaker._sock.drops for n in lossy.speakers)
        + sum(n.speaker._sock.queued for n in lossy.speakers)
        + tel.total("rebroadcaster.send_failures") * N_SPEAKERS
    )
    # the unaccounted deliveries are exactly the copies lost on the wire
    # (receiver_losses also counts lost *control* copies, so the data
    # residual is bounded by, not equal to, the loss counter)
    assert 0 < residual <= losses


def test_counters_agree_with_component_stats(lossless):
    """The counters are views of the stats structs the components keep;
    they must agree exactly with them, summed across labels."""
    tel = lossless.telemetry
    rb = lossless.rebroadcasters[0]
    assert tel.total("rebroadcaster.data_sent") == rb.stats.data_sent
    assert tel.total("rebroadcaster.control_sent") == rb.stats.control_sent
    assert tel.total("rebroadcaster.raw_bytes") == rb.stats.raw_bytes
    assert tel.total("speaker.data_rx") == sum(
        n.stats.data_rx for n in lossless.speakers
    )
    assert tel.total("speaker.played") == sum(
        n.stats.played for n in lossless.speakers
    )
    assert tel.total("audio.underruns") == sum(
        n.device.underruns for n in lossless.speakers
    )


# -- the derived report ------------------------------------------------------


def test_pipeline_report_latency_percentiles_nonzero(lossless):
    rep = lossless.pipeline_report()
    for snap in (rep.latency, rep.arrival):
        assert snap["count"] > 0
        assert 0 < snap["p50"] <= snap["p90"] <= snap["p99"] <= snap["max"]
    # arrival (producer->speaker rx) must be under e2e (->DAC write)
    assert rep.arrival["p50"] < rep.latency["p50"]
    assert rep.duration > 6.0
    assert rep.trace_events > 0


def test_pipeline_report_conservation_flag(lossless, lossy):
    assert lossless.pipeline_report().conservation_ok
    assert lossless.pipeline_report().conservation_residual == 0
    lossy_rep = lossy.pipeline_report()
    assert lossy_rep.conservation_ok
    assert lossy_rep.conservation_residual > 0


def test_pipeline_report_channel_accounting(lossless):
    rep = lossless.pipeline_report()
    (ch,) = rep.channels
    assert ch.name == "lobby"
    assert ch.speakers == N_SPEAKERS
    assert ch.data_sent > 0
    assert ch.played > 0
    assert ch.compression_ratio == 1.0  # compress="never", raw channel
    assert rep.total_sent == ch.data_sent
    text = rep.summary()
    assert "lobby" in text and "conservation ok" in text


def test_pipeline_report_without_telemetry():
    """The accounting half of the report works from component stats even
    with telemetry off."""
    system = _run_system(telemetry=False)
    rep = system.pipeline_report()
    (ch,) = rep.channels
    assert ch.data_sent > 0
    assert rep.conservation_ok
    assert rep.latency == {} and rep.trace_events == 0


# -- the trace ---------------------------------------------------------------


def test_chrome_trace_valid_and_complete(lossless, tmp_path):
    doc = json.loads(json.dumps(lossless.chrome_trace()))
    events = doc["traceEvents"]
    assert events
    names = {e["name"] for e in events}
    for expected in ("packet.encode", "speaker.decode", "packet.flight",
                     "ratelimiter.wait"):
        assert expected in names, f"missing {expected} events"
    # every event's tid maps to a named track
    named = {e["tid"] for e in events if e["ph"] == "M"}
    assert {e["tid"] for e in events if e["ph"] != "M"} <= named
    path = tmp_path / "run.json"
    lossless.write_trace(str(path))
    assert json.loads(path.read_text())["traceEvents"]


def test_sim_instrumentation_recorded(lossless):
    tel = lossless.telemetry
    assert tel.counters["sim.events"] > 1000
    assert tel.histograms["sim.queue_depth"].count > 0


def test_telemetry_runs_are_deterministic():
    """Same seed, same virtual schedule: the exported traces and counter
    snapshots of two runs must match exactly."""
    a = _run_system(loss_rate=0.05, seed=3)
    b = _run_system(loss_rate=0.05, seed=3)
    assert a.telemetry.snapshot() == b.telemetry.snapshot()
    assert (a.telemetry.tracer.to_json() == b.telemetry.tracer.to_json())


def test_disabled_telemetry_identical_audio_outcome():
    """Telemetry must observe, never perturb: the simulation's audio
    outcome is bit-identical with it on or off."""
    on = _run_system(telemetry=True)
    off = _run_system(telemetry=False)
    assert [n.stats.played for n in on.speakers] == [
        n.stats.played for n in off.speakers
    ]
    assert [n.sink.played_seconds for n in on.speakers] == [
        n.sink.played_seconds for n in off.speakers
    ]
    assert on.sim.now == off.sim.now
    assert off.telemetry.tracer.events == []


def test_injected_registry_is_used_and_rebound_to_sim_clock():
    tel = Telemetry()
    system = EthernetSpeakerSystem(telemetry=tel)
    assert system.telemetry is tel
    system.sim.schedule(2.5, lambda: None)
    system.run()
    assert tel.clock() == system.sim.now == 2.5
    assert tel.tracer.clock() == 2.5
