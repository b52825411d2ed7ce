"""Cell monitoring: aggregate health/efficiency snapshots.

Production operation needs observable cells: per-backend residency and
DRAM, operation counters, retry/validation rates, repair activity, RPC
byte rates, engine scale-out state, CPU by component. This module
assembles one immutable snapshot of all of it from a running cell — the
sort of page an SRE would watch during a rollout (§6.1's "essentially
always in progress" upgrades make this non-optional).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .reporting import render_alerts, render_sli, render_table


@dataclass
class BackendSnapshot:
    task: str
    shard: int
    alive: bool
    resident_keys: int
    dram_bytes: int
    index_load_factor: float
    sets_applied: int
    evictions: int
    overflow_entries: int
    data_region_grows: int
    index_resizes: int
    repairs_applied: int
    defrag_moves: int
    rpc_calls: int
    rpc_bytes: int
    cpu_seconds: Dict[str, float] = field(default_factory=dict)
    pony_engines: Optional[int] = None


@dataclass
class ClientSnapshot:
    name: str
    gets: int
    hit_rate: float
    retries: int
    validation_failures: int
    torn_reads: int
    sets: int


@dataclass
class CellSnapshot:
    """One point-in-time view of a whole cell."""

    time: float
    config_id: int
    mode: str
    backends: List[BackendSnapshot]
    clients: List[ClientSnapshot]
    # Full telemetry registry export (``cell.metrics.snapshot()``): one
    # entry per metric family, each with its labeled series.
    metrics: Dict[str, dict] = field(default_factory=dict)
    # When the cell runs the observability plane: its SLI summary and
    # the alert transitions so far (dicts from ``AlertEvent.to_dict``).
    sli: Optional[dict] = None
    alerts: List[dict] = field(default_factory=list)

    # -- aggregates -----------------------------------------------------------

    @property
    def total_dram_bytes(self) -> int:
        return sum(b.dram_bytes for b in self.backends if b.alive)

    @property
    def total_resident_keys(self) -> int:
        return sum(b.resident_keys for b in self.backends if b.alive)

    @property
    def alive_backends(self) -> int:
        return sum(1 for b in self.backends if b.alive)

    @property
    def total_gets(self) -> int:
        return sum(c.gets for c in self.clients)

    @property
    def aggregate_hit_rate(self) -> float:
        gets = self.total_gets
        if not gets:
            return 0.0
        hits = sum(c.gets * c.hit_rate for c in self.clients)
        return hits / gets

    def render(self) -> str:
        backend_rows = [[b.task, b.shard, "up" if b.alive else "DOWN",
                         b.resident_keys, f"{b.dram_bytes / 1e6:.2f}",
                         f"{b.index_load_factor:.2f}", b.evictions,
                         b.repairs_applied,
                         b.pony_engines if b.pony_engines is not None else "-"]
                        for b in self.backends]
        client_rows = [[c.name, c.gets, f"{c.hit_rate:.3f}", c.retries,
                        c.torn_reads, c.sets] for c in self.clients]
        parts = [
            f"cell snapshot @ t={self.time:.3f}s  mode={self.mode}  "
            f"config-gen={self.config_id}  "
            f"backends={self.alive_backends}/{len(self.backends)}  "
            f"DRAM={self.total_dram_bytes / 1e6:.2f}MB  "
            f"keys={self.total_resident_keys}",
            render_table("backends",
                         ["task", "shard", "state", "keys", "DRAM MB",
                          "load", "evictions", "repairs", "engines"],
                         backend_rows),
        ]
        if client_rows:
            parts.append(render_table(
                "clients", ["client", "gets", "hit rate", "retries",
                            "torn reads", "sets"], client_rows))
        if self.sli is not None:
            parts.append(render_sli("SLIs (prober vantage)", self.sli))
        if self.alerts:
            parts.append(render_alerts("SLO alerts", self.alerts))
        return "\n".join(parts)


def snapshot_cell(cell, clients=()) -> CellSnapshot:
    """Collect a :class:`CellSnapshot` from a live cell."""
    backends = []
    for task, backend in sorted(cell.backends.items()):
        engines = None
        transport = cell.transport
        if transport is not None and hasattr(transport, "engine_groups"):
            group = transport.engine_groups.get(backend.host.name)
            if group is not None:
                engines = group.engine_count
        stats = backend.stats
        backends.append(BackendSnapshot(
            task=task, shard=backend.shard, alive=backend.alive,
            resident_keys=backend.resident_keys,
            dram_bytes=backend.dram_used_bytes(),
            index_load_factor=backend.index.load_factor,
            sets_applied=stats.sets_applied,
            evictions=stats.evictions_capacity +
            stats.evictions_associativity,
            overflow_entries=len(backend.overflow),
            data_region_grows=stats.data_region_grows,
            index_resizes=stats.index_resizes,
            repairs_applied=stats.repairs_applied,
            defrag_moves=stats.defrag_moves,
            rpc_calls=backend.rpc_server.metrics.calls,
            rpc_bytes=backend.rpc_server.metrics.total_bytes,
            cpu_seconds=backend.host.ledger.snapshot(),
            pony_engines=engines))
    client_snaps = []
    for client in clients:
        stats = client.stats
        gets = stats["gets"]
        client_snaps.append(ClientSnapshot(
            name=f"client-{client.client_id}", gets=gets,
            hit_rate=stats["hits"] / gets if gets else 0.0,
            retries=stats["retries"],
            validation_failures=stats["validation_failures"],
            torn_reads=stats["torn_reads"], sets=stats["sets"]))
    config = cell.config_store.peek(cell.spec.name)
    registry = getattr(cell, "metrics", None)
    plane = getattr(cell, "observability", None)
    return CellSnapshot(time=cell.sim.now, config_id=config.config_id,
                        mode=config.mode.value, backends=backends,
                        clients=client_snaps,
                        metrics=registry.snapshot() if registry else {},
                        sli=plane.sli_summary() if plane else None,
                        alerts=[e.to_dict() for e in plane.engine.events]
                        if plane else [])
