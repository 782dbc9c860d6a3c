"""Regression tests for RebroadcasterStats edge reporting.

``compression_ratio`` used to report 1.0 whenever ``raw_bytes == 0``,
which made a fully-suspended channel (every block withheld under §4.3
MSNIP) indistinguishable from a healthy uncompressed one in reports and
dashboards.  The contract now:

* nothing ingested            -> 1.0 (nothing was altered)
* everything suspended        -> 0.0 (nothing reached the wire)
* some blocks sent            -> sent / raw over *sent* blocks only;
  suspended traffic is accounted separately in ``suspended_bytes``.
"""

from repro.audio import AudioEncoding, AudioParams, music, sine
from repro.core import EthernetSpeakerSystem
from repro.core.rebroadcaster import RebroadcasterStats

PARAMS = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)


# -- unit: the dataclass -----------------------------------------------------


def test_ratio_is_one_before_any_traffic():
    assert RebroadcasterStats().compression_ratio == 1.0


def test_ratio_is_zero_when_fully_suspended():
    stats = RebroadcasterStats(suspended_blocks=10, suspended_bytes=10_000)
    assert stats.raw_bytes == 0
    assert stats.compression_ratio == 0.0


def test_ratio_over_sent_blocks_only():
    stats = RebroadcasterStats(
        data_sent=4, raw_bytes=4000, sent_payload_bytes=1000,
        suspended_blocks=6, suspended_bytes=6000,
    )
    # suspended bytes must not dilute the ratio of what actually went out
    assert stats.compression_ratio == 0.25


def test_ratio_uncompressed_channel():
    stats = RebroadcasterStats(data_sent=2, raw_bytes=2000,
                               sent_payload_bytes=2000)
    assert stats.compression_ratio == 1.0


# -- integration: suspended-block accounting ---------------------------------


def _suspended_run(suspend_at: float):
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    channel = system.add_channel("susp", params=PARAMS, compress="never")
    rb = system.add_rebroadcaster(producer, channel, control_interval=0.5)
    system.add_speaker(channel=channel)
    if suspend_at == 0.0:
        rb.suspend()
    else:
        system.sim.schedule(suspend_at, rb.suspend)
    system.play_pcm(producer, sine(440, 4.0, 8000), PARAMS)
    system.run(until=8.0)
    return system, rb


def test_fully_suspended_channel_reports_zero_ratio():
    system, rb = _suspended_run(suspend_at=0.0)
    assert rb.stats.suspended_blocks > 0
    assert rb.stats.data_sent == 0
    assert rb.stats.suspended_bytes == PARAMS.bytes_for(4.0)
    assert rb.stats.compression_ratio == 0.0
    # the pipeline report must carry the same verdict
    (ch,) = system.pipeline_report().channels
    assert ch.compression_ratio == 0.0
    assert ch.suspended_blocks == rb.stats.suspended_blocks


def test_partial_suspension_splits_accounting_exactly():
    system, rb = _suspended_run(suspend_at=2.0)
    stats = rb.stats
    assert stats.data_sent > 0 and stats.suspended_blocks > 0
    # every ingested byte is either sent-side raw or suspended: the VAD
    # hands the rebroadcaster the whole 4 s stream either way
    assert stats.raw_bytes + stats.suspended_bytes == PARAMS.bytes_for(4.0)
    assert stats.compression_ratio == 1.0  # raw channel, sent blocks only
    (ch,) = system.pipeline_report().channels
    assert ch.compression_ratio == 1.0


# -- refused control frames stay out of the data ledger ----------------------

BUSY = AudioParams(AudioEncoding.SLINEAR16, 22050, 1)
BUSY_CHANNELS = 12


def _busy_lan_run(telemetry: bool, channels: int = BUSY_CHANNELS,
                  max_backlog: int = BUSY_CHANNELS):
    """Compressed channels burst onto one 100 Mbps segment.  Every channel
    emits its data block at the same instant and its periodic control
    right after, so with a transmit queue of ``BUSY_CHANNELS`` frames the
    twelve-frame data burst fills the queue and the controls behind it
    are refused, while every data frame still goes out."""
    system = EthernetSpeakerSystem(seed=1, telemetry=telemetry)
    system.lan.max_backlog = max_backlog
    rbs = []
    for i in range(channels):
        producer = system.add_producer()
        channel = system.add_channel(f"busy{i}", params=BUSY,
                                     compress="always")
        rbs.append(system.add_rebroadcaster(producer, channel))
        system.add_speaker(channel=channel)
        system.play_pcm(producer, music(6.0, 22050, seed=i), BUSY)
    system.run(until=10.0)
    return system.pipeline_report(), rbs


def test_refused_control_frames_are_not_data_send_failures():
    report, rbs = _busy_lan_run(telemetry=False)
    control_refused = sum(rb.stats.control_send_failures for rb in rbs)
    assert control_refused > 0  # the scenario does refuse controls
    assert sum(rb.stats.send_failures for rb in rbs) == 0
    assert report.total_played == report.total_sent
    assert report.conservation_ok


def test_controls_not_refused_on_a_quiet_lan():
    """32 channels' simultaneous blocks stay far inside the default
    200-frame queue, so no control frame may be refused.  The bound used
    to scale with the arriving frame's own transmit time, which refused
    short controls behind a few data frames (160 of 192 here)."""
    report, rbs = _busy_lan_run(telemetry=False, channels=32,
                                max_backlog=200)
    assert sum(rb.stats.control_send_failures for rb in rbs) == 0
    assert sum(rb.stats.control_sent for rb in rbs) == 192
    assert report.total_played == report.total_sent
    assert report.conservation_ok


def test_send_failures_agree_with_telemetry_on_and_off():
    off, rbs_off = _busy_lan_run(telemetry=False)
    on, rbs_on = _busy_lan_run(telemetry=True)
    assert ([c.send_failures for c in on.channels]
            == [c.send_failures for c in off.channels])
    assert ([rb.stats.control_send_failures for rb in rbs_on]
            == [rb.stats.control_send_failures for rb in rbs_off])
    assert on.conservation_ok and off.conservation_ok
