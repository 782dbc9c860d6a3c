"""Two advertisers on one machine: the second runs on the fallback.

Only one socket on a stack can hold the discovery port.  The first
advertiser on a machine binds it and hears ENTITY_DISCOVER; a second
one (here: two advertised rebroadcasters on one producer) gets an
unbound socket and advertises on its periodic cadence only.  Both still
register, only the port holder answers a cold-booting controller early,
and restarting either keeps the machine's socket count where it was.
"""

from repro.audio import AudioEncoding, AudioParams
from repro.core import EthernetSpeakerSystem
from repro.sim.process import Process, Sleep

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)
RESTARTS = 3


def test_second_advertiser_on_a_machine_falls_back_to_periodic():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    rbs = [
        system.add_rebroadcaster(
            producer, system.add_channel(name, params=LOW, compress="never")
        )
        for name in ("lobby", "hall")
    ]
    # valid_time 4.0 -> a 1.0 s advertising cadence
    holder, fallback = (
        system.advertise_rebroadcaster(rb, valid_time=4.0) for rb in rbs
    )
    controller = system.add_controller(check_interval=0.1)
    sockets = holder.stack._sockets
    assert fallback.stack is holder.stack
    seen = {}

    def scenario():
        yield Sleep(0.5)
        seen["ports"] = [adv._sock.port for adv in (holder, fallback)]
        seen["registered"] = sorted(r.name for r in controller.available())
        base = len(sockets)
        counts = []
        for _ in range(RESTARTS):
            for adv in (holder, fallback):
                adv.stop()
                counts.append(len(sockets))
                yield Sleep(0.05)
                adv.start()
                counts.append(len(sockets))
        seen["counts"] = counts
        seen["base"] = base
        # a cold boot mid-interval: only the port holder hears it
        yield Sleep(0.3)
        controller.crash()
        yield Sleep(0.1)
        solicited = [adv.stats.solicited for adv in (holder, fallback)]
        controller.restart()
        yield Sleep(0.1)
        seen["early"] = sorted(r.name for r in controller.available())
        seen["solicited"] = [
            adv.stats.solicited - n
            for adv, n in zip((holder, fallback), solicited)
        ]
        # the fallback registers on its next periodic tick
        yield Sleep(1.0)
        seen["late"] = sorted(r.name for r in controller.available())

    proc = Process.spawn(system.sim, scenario())
    system.run(until=3.0)
    assert proc.exception is None
    assert seen["ports"][0] == holder.port != seen["ports"][1]
    assert seen["registered"] == [holder.name, fallback.name]
    assert seen["counts"] == [seen["base"]] * (4 * RESTARTS)
    assert seen["solicited"] == [1, 0]
    assert seen["early"] == [holder.name]
    assert seen["late"] == [holder.name, fallback.name]
