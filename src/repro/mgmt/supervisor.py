"""Watchdog / health registry: per-node liveness and driven restarts.

The paper's deployment is meant to run unattended in a building — the
speakers are netboot ramdisk appliances (§3.4) precisely so a power-cycled
node comes back with no operator.  This module supplies the management
half of that story:

* every supervised node runs a tiny **heartbeat agent** on its own
  machine.  The agent charges a few CPU cycles per beat, so it starves
  honestly with the node: a killed process fails its liveness probe, a
  frozen process fails it too, and a halted CPU never gets to beat at
  all;
* the :class:`Supervisor` (the management plane — it runs on the
  simulator directly, like an operator's box outside the audio path)
  scans the registry every ``check_interval``; a node whose last beat is
  older than ``miss_threshold`` heartbeat intervals is marked **down**
  and a missed-heartbeat counter increments;
* if the node was registered with a ``restart`` action, the supervisor
  schedules it after ``restart_delay`` — modelling the watchdog-reset /
  power-cycle path — and counts the restart.

Heartbeats, misses, lease expiries and restarts are counted once, per
node, on its :class:`NodeHealth`, which telemetry reads as
``supervisor.{beats,missed,lease_expiries,restarts}[node]``;
:attr:`Supervisor.stats` sums them (with the supervisor-wide count of
down transitions) into the row ``pipeline_report()`` folds in, so a
run's self-healing activity shows up next to its audio ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.metrics.telemetry import get_telemetry
from repro.sim.process import Process, Sleep

#: health states
UP = "up"
DOWN = "down"
RESTARTING = "restarting"


@dataclass
class NodeHealth:
    """One supervised node's view in the registry."""

    name: str
    status: str = UP
    last_beat: float = float("-inf")
    beats: int = 0
    missed: int = 0          # scan passes that found the node silent
    lease_expiries: int = 0  # discovery-lease expiries acted on
    restarts: int = 0        # restarts this supervisor drove
    restart_pending: bool = False


@dataclass
class SupervisorStats:
    """Supervisor-wide counts, read through :attr:`Supervisor.stats`."""

    heartbeats: int = 0
    missed_heartbeats: int = 0
    restarts: int = 0
    nodes_down: int = 0      # down transitions observed
    lease_expiries: int = 0  # discovery-lease expiries acted on

    #: populated by :meth:`Supervisor.snapshot`
    nodes: Dict[str, str] = field(default_factory=dict)


class Supervisor:
    """Health registry plus the scan/restart loop.

    Parameters
    ----------
    heartbeat_interval:
        how often each node's agent probes and beats.
    miss_threshold:
        how many heartbeat intervals of silence mark a node down.
    restart_delay:
        seconds between marking a node down and firing its restart
        action (the watchdog-reset latency); ``None`` disables driven
        restarts globally.
    """

    #: CPU cycles one heartbeat costs on the node's machine
    BEAT_CYCLES = 1000

    def __init__(
        self,
        sim,
        heartbeat_interval: float = 0.5,
        miss_threshold: int = 3,
        restart_delay: Optional[float] = 0.5,
        name: str = "supervisor0",
        telemetry=None,
    ):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.sim = sim
        self.heartbeat_interval = heartbeat_interval
        self.miss_threshold = miss_threshold
        self.restart_delay = restart_delay
        self.name = name
        #: down transitions observed (the one count kept per supervisor)
        self._nodes_down = 0
        self.nodes: Dict[str, NodeHealth] = {}
        self._probes: Dict[str, Callable[[], bool]] = {}
        self._restarts: Dict[str, Optional[Callable[[], None]]] = {}
        self._agents: Dict[str, Process] = {}
        self._proc: Optional[Process] = None
        self.telemetry = telemetry if telemetry is not None else get_telemetry()

    # -- registration ---------------------------------------------------------

    def watch(
        self,
        name: str,
        machine,
        probe: Callable[[], bool],
        restart: Optional[Callable[[], None]] = None,
    ) -> NodeHealth:
        """Supervise a node.

        ``probe`` is the node-local liveness check (process alive and not
        frozen); it runs inside the heartbeat agent *on the node's
        machine*, so a halted CPU silences the agent no matter what the
        probe would have said.  ``restart`` is invoked from the
        management plane after the node is marked down.
        """
        if name in self.nodes:
            raise ValueError(f"node {name!r} already supervised")
        health = NodeHealth(name=name, last_beat=self.sim.now)
        self.nodes[name] = health
        self.telemetry.register("supervisor", name, health)
        self._probes[name] = probe
        self._restarts[name] = restart
        self._agents[name] = Process.spawn(
            self.sim, self._agent(name, machine), name=f"hb/{name}"
        )
        return health

    def start(self) -> Process:
        """Start the scan loop (idempotent)."""
        if self._proc is None or not self._proc.alive:
            self._proc = Process.spawn(
                self.sim, self._scan(), name=f"{self.name}/scan"
            )
        return self._proc

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.kill()
        for agent in self._agents.values():
            agent.kill()

    def status(self, name: str) -> str:
        return self.nodes[name].status

    @property
    def stats(self) -> SupervisorStats:
        """The per-node counters summed, plus the down transitions."""
        nodes = self.nodes.values()
        return SupervisorStats(
            heartbeats=sum(h.beats for h in nodes),
            missed_heartbeats=sum(h.missed for h in nodes),
            restarts=sum(h.restarts for h in nodes),
            nodes_down=self._nodes_down,
            lease_expiries=sum(h.lease_expiries for h in nodes),
        )

    def snapshot(self) -> SupervisorStats:
        """Stats with the per-node status map filled in."""
        stats = self.stats
        stats.nodes = {n: h.status for n, h in self.nodes.items()}
        return stats

    # -- the node-side agent --------------------------------------------------

    def _agent(self, name: str, machine):
        while True:
            yield Sleep(self.heartbeat_interval)
            # the beat costs real cycles on the node: a halted CPU parks
            # the agent right here and the registry goes stale honestly
            yield machine.cpu.run(self.BEAT_CYCLES, domain="user")
            if not self._probes[name]():
                continue
            health = self.nodes[name]
            health.last_beat = self.sim.now
            health.beats += 1
            if health.status == DOWN and not health.restart_pending:
                health.status = UP

    # -- the management-plane scan -------------------------------------------

    def _scan(self):
        tel = self.telemetry
        deadline = self.heartbeat_interval * self.miss_threshold
        while True:
            yield Sleep(self.heartbeat_interval)
            now = self.sim.now
            for name, health in self.nodes.items():
                if health.restart_pending:
                    continue
                if now - health.last_beat <= deadline:
                    if health.status == DOWN:
                        health.status = UP
                    continue
                health.missed += 1
                if health.status != DOWN:
                    health.status = DOWN
                    self._nodes_down += 1
                    tel.tracer.instant(
                        "supervisor.down", track=self.name, node=name,
                    )
                restart = self._restarts[name]
                if restart is not None and self.restart_delay is not None:
                    health.restart_pending = True
                    health.status = RESTARTING
                    self.sim.schedule(
                        self.restart_delay, self._do_restart, name
                    )

    def notify_lease_expired(self, name: str) -> bool:
        """Second health signal: a discovery lease lapsed for ``name``.

        Fed by :class:`repro.mgmt.controller.FleetController` when an
        entity's ADP lease ages out.  Re-uses the exact restart path the
        heartbeat scan drives — including the ``restart_pending`` latch —
        so a node both signals notice is still restarted exactly once.
        Returns ``True`` when a restart was scheduled (or the node was
        newly marked down with no restart action registered).
        """
        health = self.nodes.get(name)
        if health is None:
            return False          # not a supervised node (e.g. a remote)
        if health.restart_pending:
            return False          # heartbeat path already acting on it
        if self._probes[name]():
            return False          # lease lapse was transient; node is fine
        health.lease_expiries += 1
        if health.status != DOWN:
            health.status = DOWN
            self._nodes_down += 1
            self.telemetry.tracer.instant(
                "supervisor.lease_expired", track=self.name, node=name,
            )
        restart = self._restarts[name]
        if restart is not None and self.restart_delay is not None:
            health.restart_pending = True
            health.status = RESTARTING
            self.sim.schedule(self.restart_delay, self._do_restart, name)
        return True

    def _do_restart(self, name: str) -> None:
        health = self.nodes[name]
        restart = self._restarts[name]
        health.restart_pending = False
        if self._probes[name]():
            # the node came back on its own while we waited
            health.status = UP
            return
        restart()
        health.restarts += 1
        health.status = UP
        health.last_beat = self.sim.now  # restart grace: full deadline again
        self.telemetry.tracer.instant(
            "supervisor.restart", track=self.name, node=name,
        )
