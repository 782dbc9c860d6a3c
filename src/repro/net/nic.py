"""Network interface: address filters, VLAN membership, multicast groups."""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional

from repro.net.addr import is_broadcast, is_multicast
from repro.net.segment import Datagram, EthernetSegment


class Nic:
    """One interface on the segment.

    Filtering mimics a real NIC + IP stack: unicast to our address,
    broadcast, or multicast groups we joined (IGMP is abstracted to
    ``join_group``).  VLAN tagging isolates ports — the paper's interim
    security measure of "operating the Ethernet Speakers in their own
    VLAN" (§5.1).

    The segment caches which NICs accept each ``(dst_ip, vlan)``, so
    every input of :meth:`accepts` is guarded: writing ``ip``, ``vlan``
    or ``promiscuous``, and ``join_group``/``leave_group``, call
    ``segment.invalidate_receivers()``.  ``groups`` is read-only.
    """

    def __init__(
        self,
        segment: EthernetSegment,
        ip: str,
        vlan: int = 1,
        promiscuous: bool = False,
        name: str = "",
    ):
        self.segment = segment
        self._ip = ip
        self._vlan = vlan
        self._promiscuous = promiscuous
        self._groups: FrozenSet[str] = frozenset()
        self.name = name or f"nic-{ip}"
        self.rx_handler: Optional[Callable[[Datagram], None]] = None
        self.rx_frames = 0
        segment.attach(self)

    @property
    def ip(self) -> str:
        return self._ip

    @ip.setter
    def ip(self, value: str) -> None:
        self._ip = value
        self.segment.invalidate_receivers()

    @property
    def vlan(self) -> int:
        return self._vlan

    @vlan.setter
    def vlan(self, value: int) -> None:
        self._vlan = value
        self.segment.invalidate_receivers()

    @property
    def promiscuous(self) -> bool:
        return self._promiscuous

    @promiscuous.setter
    def promiscuous(self, value: bool) -> None:
        self._promiscuous = value
        self.segment.invalidate_receivers()

    @property
    def groups(self) -> FrozenSet[str]:
        return self._groups

    def join_group(self, group_ip: str) -> None:
        if not is_multicast(group_ip):
            raise ValueError(f"{group_ip} is not a multicast address")
        if group_ip not in self._groups:
            self._groups = self._groups | {group_ip}
            self.segment.invalidate_receivers()

    def leave_group(self, group_ip: str) -> None:
        if group_ip in self._groups:
            self._groups = self._groups - {group_ip}
            self.segment.invalidate_receivers()

    def accepts(self, dgram: Datagram) -> bool:
        if dgram.vlan != self._vlan:
            return False  # VLAN isolation happens before anything else
        if self._promiscuous:
            return True
        if dgram.dst_ip == self._ip or is_broadcast(dgram.dst_ip):
            return True
        return is_multicast(dgram.dst_ip) and dgram.dst_ip in self._groups

    def deliver(self, dgram: Datagram) -> None:
        self.rx_frames += 1
        if self.rx_handler is not None:
            self.rx_handler(dgram)

    def send(self, dgram: Datagram) -> bool:
        return self.segment.transmit(dgram, sender=self)
