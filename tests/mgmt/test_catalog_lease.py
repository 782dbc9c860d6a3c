"""Regression: catalog entries must die when their announcer does.

The original catalog kept :class:`CatalogListener` entries alive forever
once the announcer crashed mid-stream — ``live_channels()`` only
*filtered* on a locally-configured expiry that nothing refreshed or
enforced against the announcer's actual cadence, so a remote control
cycling the catalog could tune to a dead channel indefinitely.  The
catalog now rides the discovery lease machinery: every announcement
carries a ``valid_time``, lapsed entries are *deleted* within
2x valid_time, announcers withhold channels whose talker probe fails,
and serial freshness stops replayed announcements resurrecting them.
"""

from repro.audio import AudioEncoding, AudioParams
from repro.core import EthernetSpeakerSystem
from repro.core.protocol import AnnounceEntry, AnnouncePacket
from repro.mgmt import (
    CATALOG_GROUP,
    CATALOG_PORT,
    CatalogAnnouncer,
    CatalogListener,
    RemoteControl,
)
from repro.sim.process import Process, Sleep

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)
INTERVAL = 0.25
VALID = 3.0 * INTERVAL      # the announcer's default lease


def build(n_channels=2, probes=False):
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    channels = []
    rbs = []
    for i in range(n_channels):
        ch = system.add_channel(f"ch{i}", params=LOW, compress="never")
        channels.append(ch)
        rbs.append(
            system.add_rebroadcaster(producer, ch, control_interval=0.5)
        )
    announcer = CatalogAnnouncer(producer.machine, interval=INTERVAL)
    for ch, rb in zip(channels, rbs):
        announcer.add_channel(
            ch, probe=(lambda rb=rb: rb.alive) if probes else None
        )
    announcer_proc = announcer.start()
    node = system.add_speaker(channel=channels[0])
    catalog = CatalogListener(node.machine)
    catalog.start()
    remote = RemoteControl(node.speaker, catalog)
    return system, channels, rbs, announcer, announcer_proc, node, \
        catalog, remote


def test_entries_age_out_after_announcer_crash():
    """THE regression: announcer dies mid-stream (no retirement message,
    ever) and the listener's view must still empty within 2x valid_time."""
    system, channels, rbs, announcer, proc, node, catalog, remote = build()
    system.run(until=1.0)
    assert len(catalog.live_channels()) == 2
    crash_at = system.sim.now
    proc.kill()                              # mid-stream, no goodbye
    system.run(until=crash_at + 2 * VALID)
    assert catalog.live_channels() == []
    assert catalog.channels == {}            # deleted, not filtered
    assert catalog.expired == 2
    assert system.sim.now - crash_at <= 2 * VALID


def test_remote_cannot_tune_to_dead_catalog_forever():
    """A remote surfing after the announcer crash gets *nothing* once the
    lease lapses — before the fix it would cycle stale entries forever."""
    system, channels, rbs, announcer, proc, node, catalog, remote = build()
    system.run(until=1.0)
    proc.kill()
    system.run(until=1.0 + 2 * VALID)
    assert remote.channel_up() is None
    assert remote.channel_down() is None
    assert remote.select("ch1") is None
    assert node.speaker.group_ip == channels[0].group_ip  # untouched


def test_dead_talker_is_withheld_within_one_announcement():
    """Per-channel probes: a crashed rebroadcaster's channel disappears
    from the *next* announcement — the remote can only land on the live
    channel, long before any lease lapses."""
    system, channels, rbs, announcer, proc, node, catalog, remote = build(
        probes=True
    )
    system.run(until=1.0)
    assert len(catalog.live_channels()) == 2
    rbs[1].crash()                            # ch1's talker dies
    system.run(until=1.0 + 2 * VALID)
    live = catalog.live_channels()
    assert [e.name for e in live] == ["ch0"]
    assert announcer.dead_skipped > 0
    # surfing from ch0 wraps straight back to ch0: ch1 is not offered
    entry = remote.channel_up()
    assert entry.name == "ch0"
    assert node.speaker.group_ip == channels[0].group_ip


def test_refreshed_entries_never_expire():
    """Control case: with the announcer alive, leases keep renewing and
    the catalog never shrinks (no false expiries)."""
    system, channels, rbs, announcer, proc, node, catalog, remote = build()
    system.run(until=6 * VALID)
    assert len(catalog.live_channels()) == 2
    assert catalog.expired == 0


def test_replayed_announcement_cannot_resurrect():
    """Serial freshness: a replayed (older-seq) announcement re-offering
    a retired channel is dropped as stale.  The replay originates from
    the announcer's own address — freshness is judged per source, so a
    second legitimate announcer elsewhere is unaffected."""
    system, channels, rbs, announcer, proc, node, catalog, remote = build()
    system.run(until=1.0)
    replay = AnnouncePacket(
        seq=1,                               # long superseded
        entries=(
            AnnounceEntry(
                channel_id=99, group_ip="239.77.0.99", port=9099,
                codec_id=0, name="ghost",
            ),
        ),
        valid_time=VALID,
    )
    sock = announcer.machine.net.socket()

    def attacker():
        sock.sendto(replay.encode(), (CATALOG_GROUP, CATALOG_PORT))
        yield Sleep(0.0)

    Process.spawn(system.sim, attacker(), name="replayer")
    system.run(until=1.5)
    assert catalog.stale_announces >= 1
    assert catalog.find("ghost") is None


def test_legacy_announcer_falls_back_to_local_expiry():
    """An announcement stamped valid_time=0 (pre-lease announcer) uses
    the listener's locally-configured expiry instead."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    node = system.add_speaker(
        channel=system.add_channel("x", params=LOW)
    )
    catalog = CatalogListener(node.machine, expiry=1.0)
    catalog.start()
    legacy = AnnouncePacket(
        seq=1,
        entries=(
            AnnounceEntry(
                channel_id=7, group_ip="239.77.0.7", port=9007,
                codec_id=0, name="old",
            ),
        ),
        valid_time=0.0,
    )
    sock = producer.machine.net.socket()

    def announce_once():
        sock.sendto(legacy.encode(), (CATALOG_GROUP, CATALOG_PORT))
        yield Sleep(0.0)

    Process.spawn(system.sim, announce_once(), name="legacy")
    system.run(until=0.5)
    assert catalog.find("old") is not None
    system.run(until=2.5)                    # past the local expiry
    assert catalog.find("old") is None
    assert catalog.expired == 1
