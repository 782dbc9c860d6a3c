"""A process blocked on a socket is collected mid-run and schedules nothing.

The ``FleetController._listen`` shape: a process loops on
``UdpSocket.recv()`` and closes its socket in ``finally``.  When nothing
reaches the process any more (its machine's segment, NIC, stack and
socket are all garbage), the collector finalises the generator while the
simulator runs, and the ``finally`` closes the socket, which closes its
queue and throws into the dying process's own wait.  That wake must not
be scheduled: the run goes on untouched, to ``until``.
"""

import gc
import weakref

from repro.net import EthernetSegment, NetworkStack, Nic
from repro.sim import Process, Simulator, Sleep

PORT = 17221
GROUP = "239.255.0.1"


def _listener(sock, log, closed, sim):
    try:
        while True:
            msg = yield sock.recv()
            log.append(msg.payload)
    finally:
        sock.close()
        closed.append(sim.now)


def _sender(sim, stack, dst, count, period):
    sock = stack.socket()
    for i in range(count):
        sock.sendto(b"%d" % i, dst)
        yield Sleep(period)


def _orphan(sim, closed):
    """A machine only its own processes reach: a sender hands three
    datagrams to a multicast listener, then ends; the listener blocks
    on its socket.  Returns a weak reference to the listener."""
    segment = EthernetSegment(sim, name="orphan")
    rx = NetworkStack(sim, Nic(segment, "10.9.0.2"))
    tx = NetworkStack(sim, Nic(segment, "10.9.0.1"))
    sock = rx.socket(PORT)
    sock.join_multicast(GROUP)
    got = []
    listener = Process.spawn(sim, _listener(sock, got, closed, sim),
                             "orphan/listen")
    Process.spawn(sim, _sender(sim, tx, (GROUP, PORT), 3, 0.1),
                  "orphan/send")
    return weakref.ref(listener), got


def test_collected_socket_listener_schedules_nothing():
    sim = Simulator()
    closed, seen = [], {}
    listener, orphan_got = _orphan(sim, closed)

    # live traffic on another segment keeps the run busy throughout
    segment = EthernetSegment(sim, name="live")
    rx = NetworkStack(sim, Nic(segment, "10.0.0.2"))
    tx = NetworkStack(sim, Nic(segment, "10.0.0.1"))
    live_got = []
    live = Process.spawn(sim, _listener(rx.socket(PORT), live_got, [], sim),
                         "live/listen")
    Process.spawn(sim, _sender(sim, tx, ("10.0.0.2", PORT), 20, 0.1),
                  "live/send")

    def collect():
        seen["alive"] = listener() is not None
        before = sim.pending()
        gc.collect()
        seen["pending"] = (before, sim.pending())
        seen["collected"] = listener() is None

    sim.schedule(1.05, collect)
    sim.run(until=3.0)

    assert orphan_got == [b"0", b"1", b"2"]
    assert seen["alive"] and seen["collected"]
    assert closed == [1.05]
    before, after = seen["pending"]
    assert after == before
    assert not sim.unhandled
    assert sim.now == 3.0
    assert live.alive and len(live_got) == 20
