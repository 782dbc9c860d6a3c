"""Per-machine UDP socket layer.

A thin, blocking-sockets-shaped API over the NIC: ``bind``, ``sendto``,
``recvfrom`` (a waitable), multicast joins.  Receive queues are bounded —
a speaker that stops draining its socket loses packets, it does not grow
memory (embedded machines have 64 MB, §3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.net.addr import is_multicast
from repro.net.nic import Nic
from repro.net.segment import Datagram
from repro.sim.core import SimError, Simulator
from repro.sim.resources import Queue


@dataclass
class ReceivedDatagram:
    payload: bytes
    src: Tuple[str, int]
    dst: Tuple[str, int]


class UdpSocket:
    """A bound UDP socket with a bounded receive queue."""

    def __init__(self, stack: "NetworkStack", port: int, rx_capacity: int):
        self.stack = stack
        self.port = port
        self._rx = Queue(capacity=rx_capacity, name=f"udp:{port}")
        self.drops = 0
        #: optional observer called with the payload of every datagram this
        #: socket drops (queue overflow, or still queued at close).  Lets
        #: the owner classify losses by protocol type — the stack itself
        #: stays protocol-agnostic.
        self.drop_hook = None

    def recv(self):
        """Waitable: the next :class:`ReceivedDatagram`."""
        return self._rx.get()

    def recv_nowait(self) -> Optional[ReceivedDatagram]:
        try:
            return self._rx.get_nowait()
        except IndexError:
            return None

    @property
    def queued(self) -> int:
        return len(self._rx)

    def sendto(self, payload: bytes, dst: Tuple[str, int]) -> bool:
        """Transmit; returns False if dropped at the segment."""
        return self.stack.send(self.port, payload, dst)

    def join_multicast(self, group_ip: str) -> None:
        self.stack.nic.join_group(group_ip)
        self.stack._group_ports.setdefault(group_ip, set()).add(self.port)

    def close(self) -> None:
        self.stack._sockets.pop(self.port, None)
        # Datagrams still queued were delivered but never consumed: fold
        # them into the drop counter so the conservation ledger does not
        # leak when a receiver dies with a non-empty queue.
        rx = self._rx
        while len(rx):
            item = rx.get_nowait()
            self.drops += 1
            if self.drop_hook is not None:
                self.drop_hook(item.payload)
        self._rx.close()

    def _enqueue(self, item: ReceivedDatagram) -> None:
        if not self._rx.put_nowait(item):
            self.drops += 1
            if self.drop_hook is not None:
                self.drop_hook(item.payload)


class NetworkStack:
    """Socket registry and demultiplexer for one machine."""

    def __init__(self, sim: Simulator, nic: Nic):
        self.sim = sim
        self.nic = nic
        self._sockets: Dict[int, UdpSocket] = {}
        self._group_ports: Dict[str, set] = {}
        self._ephemeral = 49152
        #: datagrams the NIC accepted but no bound socket claimed (e.g. a
        #: crashed listener whose socket closed while the NIC stayed in
        #: the multicast group) — counted so downtime loss is visible
        self.unclaimed_drops = 0
        nic.rx_handler = self._receive

    @property
    def ip(self) -> str:
        return self.nic.ip

    def socket(self, port: int = 0, rx_capacity: int = 256) -> UdpSocket:
        """Create and bind a UDP socket (0 picks an ephemeral port)."""
        if port == 0:
            while self._ephemeral in self._sockets:
                self._ephemeral += 1
            port = self._ephemeral
            self._ephemeral += 1
        if port in self._sockets:
            raise SimError(f"port {port} already bound on {self.ip}")
        sock = UdpSocket(self, port, rx_capacity)
        self._sockets[port] = sock
        return sock

    def send(self, src_port: int, payload: bytes, dst: Tuple[str, int]) -> bool:
        dgram = Datagram(
            src_ip=self.ip,
            src_port=src_port,
            dst_ip=dst[0],
            dst_port=dst[1],
            payload=payload,
            vlan=self.nic.vlan,
        )
        return self.nic.send(dgram)

    def _receive(self, dgram: Datagram) -> None:
        sock = self._sockets.get(dgram.dst_port)
        if sock is None:
            self.unclaimed_drops += 1
            return
        if is_multicast(dgram.dst_ip):
            joined = self._group_ports.get(dgram.dst_ip, set())
            if dgram.dst_port not in joined:
                self.unclaimed_drops += 1
                return
        sock._enqueue(
            ReceivedDatagram(
                payload=dgram.payload,
                src=(dgram.src_ip, dgram.src_port),
                dst=(dgram.dst_ip, dgram.dst_port),
            )
        )
