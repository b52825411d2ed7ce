"""Multi-cell federation: the fleet view (§1, §3).

CliqueMap is "deployed across some 50 production clusters distributed
among 20 warehouse-scale datacenters". A corpus is typically replicated
per-cluster: applications talk to the cell in their own datacenter over
RMA, and fall back to a remote cell over WAN RPC when the local cell
cannot serve (the Table 1 row-5 posture).

:class:`Federation` wires several cells (one per zone) onto one fabric
and hands out :class:`FederatedClient` handles that (a) serve GETs from
the local cell, (b) optionally fall back to remote cells on local
misses/errors, and (c) fan writes out to every cell (regional writers
keeping corpus copies in sync — each cell still runs its own internal
R=3.2 replication underneath).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..net import Fabric, FabricConfig
from ..sim import Simulator
from .cell import Cell, CellSpec
from .client import CliqueMapClient
from .config import LookupStrategy
from .errors import GetStatus


@dataclass
class FederationSpec:
    """Zones and the per-zone cell template."""

    zones: List[str] = field(default_factory=lambda: ["dc-a", "dc-b"])
    cell_spec: CellSpec = field(default_factory=CellSpec)
    fabric_config: FabricConfig = field(default_factory=FabricConfig)


def build_zone_cell(zone: str, cell_spec: CellSpec, sim: Simulator,
                    fabric: Fabric) -> Cell:
    """Stand up one zone's cell from the federation's template spec.

    The cell is constructed zone-aware (hosts land in ``zone`` with
    zone-prefixed names) from a deep copy of the template, so every zone
    gets identical-but-independent backend/repair/maintenance config.
    Shared by :class:`Federation` (all zones on one fabric) and
    :class:`~repro.core.parallelfed.ZoneShard` (one zone per shard
    fabric) so both build bit-identical cells from the same spec.
    """
    spec = copy.deepcopy(cell_spec)
    spec.name = f"{spec.name}-{zone}"
    return Cell(spec, sim=sim, fabric=fabric, zone=zone)


class Federation:
    """Several cells, one per datacenter, over one simulated world."""

    def __init__(self, spec: Optional[FederationSpec] = None):
        self.spec = spec or FederationSpec()
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, self.spec.fabric_config)
        self.cells: Dict[str, Cell] = {}
        self._fed_client_seq = 0
        for zone in self.spec.zones:
            self.cells[zone] = build_zone_cell(
                zone, self.spec.cell_spec, self.sim, self.fabric)

    def cell(self, zone: str) -> Cell:
        return self.cells[zone]

    def make_client(self, zone: str, remote_fallback: bool = True,
                    **kwargs) -> "FederatedClient":
        """A client homed in ``zone``; connect with ``client.connect()``."""
        local = self.cells[zone]
        # Deterministic host naming (a counter, not id()): sharded runs
        # compare op digests across processes, so two same-seed builds
        # must produce byte-identical host names.
        self._fed_client_seq += 1
        host = self.fabric.add_host(
            f"{zone}/host/fed-client-{self._fed_client_seq}", zone=zone)
        local_client = local.make_client(host=host, **kwargs)
        remote_clients = {}
        if remote_fallback:
            for other_zone, other_cell in self.cells.items():
                if other_zone == zone:
                    continue
                # zone != "local" selects the RPC strategy and
                # WAN-appropriate deadlines inside make_client.
                remote_clients[other_zone] = other_cell.make_client(
                    host=host, strategy=LookupStrategy.RPC, zone=zone)
        return FederatedClient(zone, local_client, remote_clients)


class FederatedClient:
    """Local-cell RMA serving with WAN RPC fallback to remote cells."""

    def __init__(self, zone: str, local: CliqueMapClient,
                 remotes: Dict[str, CliqueMapClient]):
        self.zone = zone
        self.local = local
        self.remotes = remotes
        self.sim = local.sim
        self.stats = {"local_hits": 0, "remote_hits": 0, "misses": 0}

    def connect(self) -> Generator:
        yield from self.local.connect()
        for remote in self.remotes.values():
            yield from remote.connect()

    def _start_fed_span(self, name: str):
        """Root span covering the whole federated operation.

        Local and remote legs attach under it via their ``trace=``
        parameter, so one span tree covers client → local cell →
        WAN fan-out → remote cell (the stitcher joins the halves that
        live in another zone's tracer, see analysis.stitch).
        """
        return self.local.tracer.start(name, zone=self.zone)

    def get(self, key: bytes, deadline: Optional[float] = None) -> Generator:
        """Serve locally; on miss/error, try remote cells over WAN RPC."""
        root = self._start_fed_span("fed.get")
        result = yield from self.local.get(key, deadline, trace=root)
        if result.status is GetStatus.HIT:
            self.stats["local_hits"] += 1
            self._finish_fed_span(root, "local_hit")
            return result
        for zone, remote in self.remotes.items():
            remote_result = yield from remote.get(key, trace=root)
            if remote_result.status is GetStatus.HIT:
                self.stats["remote_hits"] += 1
                # Fill the local cell so the next GET is an RMA hit.
                yield from self.local.set(key, remote_result.value,
                                          trace=root)
                self._finish_fed_span(root, "remote_hit", remote_zone=zone)
                return remote_result
        self.stats["misses"] += 1
        self._finish_fed_span(root, "miss")
        return result

    def set(self, key: bytes, value: bytes,
            deadline: Optional[float] = None) -> Generator:
        """Write everywhere: the local cell plus every remote cell."""
        return (yield from self._everywhere("set", (key, value), deadline))

    def erase(self, key: bytes,
              deadline: Optional[float] = None) -> Generator:
        """Erase everywhere: the local cell plus every remote cell."""
        return (yield from self._everywhere("erase", (key,), deadline))

    def _everywhere(self, op: str, args: tuple,
                    deadline: Optional[float]) -> Generator:
        """Run ``op`` on the local cell, then on every remote cell; the
        local result is the op's result."""
        root = self._start_fed_span("fed." + op)
        result = yield from getattr(self.local, op)(*args, deadline,
                                                    trace=root)
        for remote in self.remotes.values():
            yield from getattr(remote, op)(*args, trace=root)
        self._finish_fed_span(root, result.status.name.lower())
        return result

    def _finish_fed_span(self, root, outcome: str, **labels) -> None:
        if not root:
            return
        root.annotate(outcome=outcome, **labels).finish()
        self.local.tracer.record(root)
