"""An advertiser's stop and depart release both of its sockets.

``EntityAdvertiser.stop()`` kills the advertising process and closes
its sockets at once: the one it advertises on and the ENTITY_DISCOVER
listener bound to the discovery port.  A leaked listener keeps that
port, so every restart after the first would run without a listener
and answer a cold-booting controller's census only on its periodic
tick.
"""

import pytest

from repro.audio import AudioEncoding, AudioParams
from repro.core import EthernetSpeakerSystem
from repro.mgmt.discovery import EntityAdvertiser
from repro.sim.process import Process, Sleep

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)
RESTARTS = 5


@pytest.mark.parametrize("leave", ["stop", "depart"])
def test_restarted_advertiser_keeps_its_listener(leave):
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="es0")
    # valid_time 4.0 -> a 1.0 s advertising cadence
    adv = system.advertise_speaker(node, valid_time=4.0)
    controller = system.add_controller(check_interval=0.1)
    sockets = adv.stack._sockets
    seen = {}

    def scenario():
        yield Sleep(0.5)
        seen["base"] = len(sockets)
        for _ in range(RESTARTS):
            getattr(adv, leave)()
            seen.setdefault("stopped", len(sockets))
            yield Sleep(0.05)
            adv.start()
            yield Sleep(0.05)
        seen["restarted"] = len(sockets)
        # a cold boot mid-interval: only a listener hears its DISCOVER
        controller.crash()
        yield Sleep(0.3)
        solicited = adv.stats.solicited
        controller.restart()
        while not controller.available():
            yield Sleep(0.01)
        seen["census"] = system.sim.now - 1.3
        seen["solicited"] = adv.stats.solicited - solicited

    proc = Process.spawn(system.sim, scenario())
    system.run(until=3.0)
    assert proc.exception is None
    assert seen["stopped"] == seen["base"] - 2
    assert seen["restarted"] == seen["base"]
    assert seen["solicited"] == 1
    # far inside the 1.0 s a periodic advert could take
    assert seen["census"] < 0.2


def test_departing_before_start_closes_its_socket():
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="es0")
    system.advertise_speaker(node)
    adv = EntityAdvertiser(node.machine, 99, name="never-started")
    sockets = adv.stack._sockets
    base = len(sockets)
    adv.depart()
    assert len(sockets) == base
    assert adv.stats.departs == 1
