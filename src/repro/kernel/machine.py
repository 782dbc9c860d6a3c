"""A simulated host: CPU + devices + file descriptors + processes.

Syscall wrappers charge system-domain CPU (trap overhead plus a per-byte
copyin/copyout cost) before delegating to the driver, so the context-switch
and CPU-utilisation figures (Figures 4 and 5) emerge from the same code
paths the paper measured rather than from hand-placed constants.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.kernel.devices import CharDevice, DeviceError
from repro.net.nic import Nic
from repro.net.segment import EthernetSegment
from repro.net.stack import NetworkStack
from repro.sim.core import Simulator
from repro.sim.cpu import CPU
from repro.sim.process import Process, Sleep


class _OpenFile:
    __slots__ = ("device", "handle", "path")

    def __init__(self, device: CharDevice, handle: Any, path: str):
        self.device = device
        self.handle = handle
        self.path = path


class Machine:
    """One computer in the simulation.

    Parameters
    ----------
    cpu_freq_hz:
        233e6 models the Neoware EON 4000's Geode (§3.4).
    syscall_cycles / copy_cycles_per_byte / intr_cycles:
        kernel cost model; defaults are plausible for the era and mostly
        matter in ratio form.
    """

    #: cycles for trap + dispatch of one syscall
    syscall_cycles = 3000.0
    #: cycles per byte of copyin/copyout
    copy_cycles_per_byte = 0.5
    #: cycles charged per device interrupt service
    intr_cycles = 2500.0

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cpu_freq_hz: float = 500e6,
        quantum: float = 0.010,
        switch_cost: float = 20e-6,
    ):
        self.sim = sim
        self.name = name
        self.cpu = CPU(
            sim, freq_hz=cpu_freq_hz, quantum=quantum,
            switch_cost=switch_cost, name=f"{name}/cpu0",
        )
        self.devices: Dict[str, CharDevice] = {}
        self._fds: Dict[int, _OpenFile] = {}
        self._next_fd = 3
        self.net: Optional[NetworkStack] = None
        self.mgmt_net: Optional[NetworkStack] = None
        self.nvram: Dict[str, Any] = {}
        self.processes: list[Process] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Machine {self.name}>"

    # -- configuration -------------------------------------------------------------

    def register_device(self, path: str, device: CharDevice) -> None:
        """Add a /dev entry."""
        self.devices[path] = device

    def attach_network(
        self, segment: EthernetSegment, ip: str, vlan: int = 1
    ) -> NetworkStack:
        self.net = NetworkStack(self.sim, Nic(segment, ip, vlan=vlan,
                                              name=f"{self.name}/nic0"))
        return self.net

    def attach_mgmt_network(
        self, segment: EthernetSegment, ip: str, vlan: int = 1
    ) -> NetworkStack:
        """Attach a second NIC on an out-of-band management segment.

        Discovery and control-plane traffic prefers this stack (see
        :attr:`control_stack`) so fleet churn never contends with the
        audio LAN for wire time.
        """
        self.mgmt_net = NetworkStack(self.sim, Nic(segment, ip, vlan=vlan,
                                                   name=f"{self.name}/nic1"))
        return self.mgmt_net

    @property
    def control_stack(self) -> Optional[NetworkStack]:
        """The stack control-plane traffic should use: the management
        NIC when one is attached, else the primary NIC."""
        return self.mgmt_net if self.mgmt_net is not None else self.net

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a user process on this machine."""
        proc = Process.spawn(self.sim, gen, name or f"{self.name}/proc")
        self.processes.append(proc)
        return proc

    def start_housekeeping(
        self, wakes_per_second: float = 2.0, cycles: float = 40_000.0
    ) -> Process:
        """Periodic kernel housekeeping (timers, page daemon, etc.).

        Produces the small baseline context-switch rate an unloaded
        machine shows — the "mean 4.2" line of Figure 5.
        """

        def daemon():
            period = 1.0 / wakes_per_second
            while True:
                yield Sleep(period)
                yield self.cpu.run(cycles, domain="sys", owner="housekeeping")

        return self.spawn(daemon(), name=f"{self.name}/housekeeping")

    # -- syscalls (generator functions; call with `yield from`) ----------------------

    def sys_open(self, path: str, flags: str = "rw"):
        """Open a device node; returns an fd."""
        yield self.cpu.run(self.syscall_cycles, domain="sys")
        device = self.devices.get(path)
        if device is None:
            raise DeviceError(f"{self.name}: no such device {path}")
        handle = device.open(self, flags)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _OpenFile(device, handle, path)
        return fd

    def open_direct(self, path: str, flags: str = "rw") -> int:
        """Install an fd for ``path`` with no syscall charge.

        Used when cloning a cohort member into a per-object speaker
        mid-stream: the member's per-object twin paid ``sys_open`` once
        at tune-in, long before the spill, so re-charging the trap here
        would skew the clone's timeline away from bit-identity.
        """
        device = self.devices.get(path)
        if device is None:
            raise DeviceError(f"{self.name}: no such device {path}")
        handle = device.open(self, flags)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _OpenFile(device, handle, path)
        return fd

    def sys_write(self, fd: int, data: bytes):
        """Write to an fd; blocks as the driver dictates; returns count."""
        entry = self._lookup(fd)
        cycles = self.syscall_cycles + self.copy_cycles_per_byte * len(data)
        yield self.cpu.run(cycles, domain="sys")
        result = yield from entry.device.write(entry.handle, data)
        return result

    def sys_read(self, fd: int, nbytes: int):
        """Read from an fd; returns bytes (or a device-specific record)."""
        entry = self._lookup(fd)
        yield self.cpu.run(self.syscall_cycles, domain="sys")
        data = yield from entry.device.read(entry.handle, nbytes)
        if isinstance(data, (bytes, bytearray)):
            nbytes_out = len(data)
        else:
            nbytes_out = getattr(data, "copy_bytes", 0)
        copy = self.copy_cycles_per_byte * nbytes_out
        if copy:
            yield self.cpu.run(copy, domain="sys")
        return data

    def sys_ioctl(self, fd: int, cmd: int, arg: Any = None):
        """Device control; returns the command's result."""
        entry = self._lookup(fd)
        yield self.cpu.run(self.syscall_cycles, domain="sys")
        result = yield from entry.device.ioctl(entry.handle, cmd, arg)
        return result

    def sys_close(self, fd: int):
        yield self.cpu.run(self.syscall_cycles, domain="sys")
        entry = self._fds.pop(fd, None)
        if entry is not None:
            entry.device.close(entry.handle)

    def _lookup(self, fd: int) -> _OpenFile:
        entry = self._fds.get(fd)
        if entry is None:
            raise DeviceError(f"{self.name}: bad file descriptor {fd}")
        return entry
