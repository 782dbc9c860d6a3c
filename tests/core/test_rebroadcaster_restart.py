"""A restarted producer releases the socket and fd of the incarnation
it ends.

``Rebroadcaster._run`` opens a socket and the VAD master fd per
incarnation; its ``finally`` closes both, so neither ``crash()`` nor
``restart()`` leaves a dead incarnation's socket bound on the producer's
stack or its fd in the machine's table.
"""

from repro.audio import AudioEncoding, AudioParams
from repro.core import EthernetSpeakerSystem
from repro.sim.process import Process, Sleep

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)
RESTARTS = 5


def test_restarts_keep_the_producer_socket_count():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    channel = system.add_channel("hall", params=LOW, compress="never")
    rb = system.add_rebroadcaster(producer, channel, control_interval=0.5)
    node = system.add_speaker(channel=channel)
    system.play_synthetic(producer, 4.0, LOW)
    machine = producer.machine
    sockets = machine.net._sockets
    seen = {"counts": []}

    def counts():
        return len(sockets), len(machine._fds)

    def scenario():
        yield Sleep(0.5)
        seen["base"] = counts()
        for _ in range(RESTARTS):
            rb.restart()
            yield Sleep(0.3)
            seen["counts"].append(counts())
        rb.crash()
        yield Sleep(0.1)
        seen["crashed"] = counts()

    proc = Process.spawn(system.sim, scenario())
    system.run(until=3.0)
    assert proc.exception is None
    # one socket; the player's slave fd and the producer's master fd
    assert seen["base"] == (1, 2)
    assert seen["counts"] == [seen["base"]] * RESTARTS
    # the player's fd stays open; the producer's socket and fd are gone
    assert seen["crashed"] == (0, 1)
    # every incarnation streamed: the speaker kept playing
    assert node.stats.played > 0
