"""Simulated hosts: CPU core pools, per-component CPU accounting, C-states.

A :class:`Host` owns a pool of cores. Any component that burns CPU (RPC
framework, CliqueMap client/backend code, language shims) does so by
yielding the event :meth:`Host.execute` returns, which charges the cost
to a named component in the host's :class:`CpuLedger`. The ledger is what
the CPU-efficiency figures (Fig 6b, Fig 7, Fig 19) read out.

The C-state model reproduces the power-saving effect the paper observes in
the 1RMA ramp (Fig 16/17): after a host has been idle longer than
``idle_threshold``, the next execution pays ``wakeup_latency`` before doing
useful work, so the *lowest* offered load sees the *highest* latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..sim import Event, Hold, Resource, Simulator


@dataclass
class CStateModel:
    """Idle-state wake-up penalty model."""

    enabled: bool = False
    idle_threshold: float = 200e-6   # idle longer than this enters deep C-state
    wakeup_latency: float = 40e-6    # cost to exit the deep C-state


class CpuLedger:
    """Accumulates CPU-seconds per named component."""

    def __init__(self):
        self._seconds: Dict[str, float] = {}

    def charge(self, component: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative CPU time")
        self._seconds[component] = self._seconds.get(component, 0.0) + seconds

    def seconds(self, component: str) -> float:
        return self._seconds.get(component, 0.0)

    def total(self) -> float:
        return sum(self._seconds.values())

    def snapshot(self) -> Dict[str, float]:
        return dict(self._seconds)

    def components(self):
        return sorted(self._seconds)


@dataclass
class HostConfig:
    """Static host parameters."""

    cores: int = 8
    c_state: CStateModel = field(default_factory=CStateModel)
    # Multiplier on all CPU work; >1 models a slower machine.
    cpu_slowdown: float = 1.0


class Host:
    """One machine: cores + CPU ledger + a NIC attachment point."""

    def __init__(self, sim: Simulator, name: str,
                 config: Optional[HostConfig] = None):
        self.sim = sim
        self.name = name
        self.config = config or HostConfig()
        self.cores = Resource(sim, capacity=self.config.cores,
                              name=f"{name}.cores")
        self.ledger = CpuLedger()
        self.nic = None  # attached by the fabric
        self.zone = "local"  # datacenter; reassigned by the fabric
        self._last_busy = sim.now
        self._alive = True

    # -- liveness (crash / restart modeling) --------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    def crash(self) -> None:
        """Mark the host dead: future executes fail fast."""
        self._alive = False

    def restart(self) -> None:
        self._alive = True
        self._last_busy = self.sim.now

    # -- CPU execution -------------------------------------------------------

    def execute(self, cpu_seconds: float, component: str,
                priority: int = 0) -> Event:
        """Run ``cpu_seconds`` of work on some core, charging ``component``.

        Returns the event to yield: it fires when the work is done, after
        the ledger charge and the core's release. Includes queueing for
        a free core and any C-state wake-up penalty. Raises
        :class:`HostDownError` at once on a crashed host; the event fails
        with it when the host crashed while the work waited for a core.
        """
        if not self._alive:
            raise HostDownError(self.name)
        return _CpuBurst(self, cpu_seconds, component, priority)

    def _wakeup_penalty(self) -> float:
        cs = self.config.c_state
        if not cs.enabled:
            return 0.0
        idle = self.sim.now - self._last_busy
        if idle > cs.idle_threshold and self.cores.count <= 1:
            return cs.wakeup_latency
        return 0.0

    def charge_inline(self, cpu_seconds: float, component: str) -> None:
        """Account CPU time without modeling core contention.

        Used for costs already covered by another timing path (e.g. NIC
        engine service time) where only the ledger entry is needed.
        """
        self.ledger.charge(component, cpu_seconds * self.config.cpu_slowdown)

    def utilization(self) -> float:
        return self.cores.utilization()

    def __repr__(self) -> str:
        return f"Host({self.name!r}, cores={self.config.cores})"


class _CpuBurst(Hold):
    """One :meth:`Host.execute`: hold a core, then charge the ledger."""

    __slots__ = ("_host", "_cpu_seconds", "_component", "_work")

    def __init__(self, host: Host, cpu_seconds: float, component: str,
                 priority: int):
        self._host = host
        self._cpu_seconds = cpu_seconds
        self._component = component
        super().__init__(host.cores, priority)

    def _begin(self) -> float:
        host = self._host
        if not host._alive:
            raise HostDownError(host.name)
        self._work = self._cpu_seconds * host.config.cpu_slowdown
        return host._wakeup_penalty() + self._work

    def _end(self) -> None:
        host = self._host
        host.ledger.charge(self._component, self._work)
        host._last_busy = host.sim.now


class HostDownError(Exception):
    """An operation touched a crashed host."""

    def __init__(self, host_name: str):
        super().__init__(f"host {host_name} is down")
        self.host_name = host_name
