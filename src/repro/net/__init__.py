"""Simulated Ethernet LAN and WAN links.

The paper's protocol leans on properties of a single Ethernet segment —
"low error rates, ample bandwidth, and most importantly, well behaved packet
arrival" plus multicast-by-default (§2.3).  Here those properties are
explicit, tunable parameters: segment bandwidth (10/100/1000 Mbps), per-
receiver jitter and loss, VLAN isolation, and a queueing model that makes a
saturated legacy link *measurably* drop audio the way §2.2 describes.
"""

from repro.net.addr import (
    ETHER_OVERHEAD,
    UDP_IP_OVERHEAD,
    is_multicast,
    wire_bytes,
)
from repro.net.faults import FaultInjector, FaultStats, GilbertElliott
from repro.net.segment import Datagram, EthernetSegment
from repro.net.nic import Nic
from repro.net.stack import NetworkStack, UdpSocket
from repro.net.macsec import ConnectivityAssociation, MacsecNic
from repro.net.monitor import BandwidthMonitor
from repro.net.switch import SwitchedSegment

# wan and fec are loaded lazily (PEP 562): they import repro.core, and
# this package initialises from inside repro.kernel.machine's own import
# — an eager import here would re-enter that half-built module
_WAN_NAMES = ("WanLink", "WanLinkStats", "WanHop", "WanHopStats", "RelayNode",
              "RelayStats")
_FEC_NAMES = ("FecEncoder", "FecReassembler", "FecStats")


def __getattr__(name):
    if name in _WAN_NAMES:
        from repro.net import wan

        return getattr(wan, name)
    if name in _FEC_NAMES:
        from repro.net import fec

        return getattr(fec, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "is_multicast",
    "wire_bytes",
    "ETHER_OVERHEAD",
    "UDP_IP_OVERHEAD",
    "Datagram",
    "EthernetSegment",
    "FaultInjector",
    "FaultStats",
    "GilbertElliott",
    "Nic",
    "NetworkStack",
    "UdpSocket",
    "BandwidthMonitor",
    "WanLink",
    "WanLinkStats",
    "WanHop",
    "WanHopStats",
    "RelayNode",
    "RelayStats",
    "FecEncoder",
    "FecReassembler",
    "FecStats",
    "ConnectivityAssociation",
    "MacsecNic",
    "SwitchedSegment",
]
