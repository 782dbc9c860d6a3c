"""An advertiser keeps one discovery socket across its incarnations.

``EntityAdvertiser`` opens its socket on first use (its first
incarnation, or a ``depart()`` before any), bound to the discovery
port: it sends adverts and DEPARTING and hears a controller's
ENTITY_DISCOVER.  ``stop()`` only kills the incarnation, so a restart
reuses the socket: the stack's socket count never moves after the
first incarnation, and every restarted incarnation still answers a
cold-booting controller's census early.  A solicitation that arrives
while no incarnation runs is drained unanswered when the next one
starts.
"""

import pytest

from repro.audio import AudioEncoding, AudioParams
from repro.core import EthernetSpeakerSystem
from repro.mgmt.discovery import EntityAdvertiser
from repro.sim.process import Process, Sleep

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)
RESTARTS = 5


def _advertised_speaker():
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="es0")
    # valid_time 4.0 -> a 1.0 s advertising cadence
    adv = system.advertise_speaker(node, valid_time=4.0)
    controller = system.add_controller(check_interval=0.1)
    return system, adv, controller


def _cold_boot(system, controller, adv, seen):
    """Crash and cold-restart ``controller``; record how long its
    census takes and how many early adverts ``adv`` sent for it."""
    controller.crash()
    yield Sleep(0.3)
    solicited = adv.stats.solicited
    booted = system.sim.now
    controller.restart()
    while not controller.available():
        yield Sleep(0.01)
    seen["census"].append(system.sim.now - booted)
    seen["solicited"].append(adv.stats.solicited - solicited)


@pytest.mark.parametrize("leave", ["stop", "depart"])
def test_restarted_advertiser_keeps_its_listener(leave):
    system, adv, controller = _advertised_speaker()
    sockets = adv.stack._sockets
    seen = {"counts": [], "census": [], "solicited": []}

    def scenario():
        yield Sleep(0.5)
        base = len(sockets)
        for _ in range(RESTARTS):
            getattr(adv, leave)()
            seen["counts"].append(len(sockets))
            yield Sleep(0.05)
            adv.start()
            seen["counts"].append(len(sockets))
            yield Sleep(0.05)
            # a cold boot mid-interval: only a listener hears its DISCOVER
            yield from _cold_boot(system, controller, adv, seen)
        seen["base"] = base

    proc = Process.spawn(system.sim, scenario())
    system.run(until=5.0)
    assert proc.exception is None
    assert seen["counts"] == [seen["base"]] * (2 * RESTARTS)
    # one early advert per DISCOVER, after every restart
    assert seen["solicited"] == [1] * RESTARTS
    # far inside the 1.0 s a periodic advert could take
    assert max(seen["census"]) < 0.2


def test_discover_while_stopped_is_not_answered():
    system, adv, controller = _advertised_speaker()
    seen = {}

    def scenario():
        yield Sleep(0.5)
        adv.stop()
        # the cold-booting controller solicits while no incarnation runs
        controller.restart()
        yield Sleep(0.05)
        assert adv.stack._sockets[adv.port].queued == 1
        advertises, solicited = adv.stats.advertises, adv.stats.solicited
        adv.start()
        # the boot advert only: the stale DISCOVER wakes nothing
        yield Sleep(0.5)
        seen["advertises"] = adv.stats.advertises - advertises
        seen["solicited"] = adv.stats.solicited - solicited

    proc = Process.spawn(system.sim, scenario())
    system.run(until=1.5)
    assert proc.exception is None
    assert seen == {"advertises": 1, "solicited": 0}


def test_departing_before_start_opens_its_one_socket():
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="es0")
    system.advertise_speaker(node)
    system.run(until=0.1)
    adv = EntityAdvertiser(node.machine, 99, name="never-started")
    sockets = adv.stack._sockets
    base = len(sockets)
    adv.depart()
    assert len(sockets) == base + 1
    assert adv.stats.departs == 1
    adv.start()
    system.run(until=0.2)
    adv.depart()
    assert len(sockets) == base + 1
    assert adv.stats.departs == 2
