"""The benchmark's three workloads, built from the program's public API.

Each workload is one fixed simulated episode per seed: build a cell (or
a two-zone federation), preload it, then run a measured phase. Every
episode calls ``phase.begin()`` right before its measured phase and
``phase.end()`` right after, so the driver can time, profile or probe
exactly that span. An episode returns an :class:`Episode`: the op
samples and counters the metrics are computed from, an order-sensitive
digest of every op outcome, and the correctness problems it found.

All inputs (keys, values, op mix, arrival streams) derive from the seed;
the same seed always yields the same episode, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import Cell, CellSpec, ReplicationMode
from repro.core import GetStatus, SetStatus
from repro.core.backend import BackendConfig
from repro.core.parallelfed import (OpDigest, ZoneShard, ZoneShardSpec,
                                    ZoneWorkloadSpec, start_zone_workload)
from repro.net import FabricConfig
from repro.sim import RandomStream, ShardCoordinator, ZipfSampler


@dataclass
class Episode:
    """What one measured phase produced (simulated side only)."""

    attempted: int = 0          # key-ops issued
    failed: int = 0             # key-ops that failed or were refused
    gets: int = 0               # key-level GETs
    hits: int = 0
    sets: int = 0               # SET ops issued in the measured phase
    get_latency: List[float] = field(default_factory=list)
    set_latency: List[float] = field(default_factory=list)
    set_latency_source: str = "measured phase"
    attempts: int = 0           # client attempts summed over key-ops
    counters: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    problems: List[str] = field(default_factory=list)


class Digest:
    """Order-sensitive blake2b over op outcomes."""

    def __init__(self):
        self._h = hashlib.blake2b(digest_size=16)

    def add(self, *fields) -> None:
        self._h.update(repr(fields).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _filler(tag: bytes, size: int) -> bytes:
    block = hashlib.blake2b(tag, digest_size=64).digest()
    return (block * (size // len(block) + 1))[:size]


# ---------------------------------------------------------------------------
# Program counters, read before and after the measured phase.
# ---------------------------------------------------------------------------

TRANSPORT_COMPONENTS = ("pony", "rma-client")
CLIENT_COMPONENTS = ("cliquemap-client", "rpc-client")


def cell_counters(cells) -> Dict[str, float]:
    """Cumulative counters over ``cells`` (one fabric/sim per cell)."""
    out = {name: 0.0 for name in (
        "events", "wire_bytes", "deliveries", "transport_reads",
        "batched_reads", "batched_keys", "rpc_calls", "evictions",
        "retries", "op_failures", "flight_events", "cpu_total", "cpu_transport",
        "cpu_rpc_server", "cpu_backend", "cpu_client")}
    for cell in cells:
        out["events"] += cell.sim._seq
        for host in cell.fabric.hosts.values():
            egress = host.nic.egress
            out["wire_bytes"] += egress.bytes_carried
            out["deliveries"] += egress._server._seq
            for component, seconds in host.ledger.snapshot().items():
                out["cpu_total"] += seconds
                if component in TRANSPORT_COMPONENTS:
                    out["cpu_transport"] += seconds
                elif component in CLIENT_COMPONENTS:
                    out["cpu_client"] += seconds
                elif component.startswith("rpc-server:"):
                    out["cpu_rpc_server"] += seconds
                elif component.startswith("backend:"):
                    out["cpu_backend"] += seconds
        if cell.transport is not None:
            counters = cell.transport.counters
            out["transport_reads"] += counters.reads + counters.scars
            out["batched_reads"] += counters.batched_reads
            out["batched_keys"] += counters.batched_keys
        for backend in cell.backends.values():
            out["rpc_calls"] += backend.rpc_server.metrics.calls
            out["evictions"] += (backend.stats.evictions_capacity +
                                 backend.stats.evictions_associativity)
        out["flight_events"] += getattr(cell.flight, "recorded", 0)
        out["retries"] += cell.metrics.total("cliquemap_retries_total")
        out["op_failures"] += (
            cell.metrics.total("cliquemap_ops_total", status="error") +
            cell.metrics.total("cliquemap_ops_total", status="failed"))
    return out


def counter_delta(before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before[name] for name in after}


# ---------------------------------------------------------------------------
# cell-read-batched: the RMA read fast path.
# ---------------------------------------------------------------------------


class CellReadBatched:
    """Pony, R3_2 cell; 8 closed-loop clients issue zipf ``get_multi``
    batches of 8 over a preloaded corpus that fits, so every GET hits."""

    name = "cell-read-batched"
    params = {"transport": "pony", "hosts": 50, "mode": "R3_2",
              "loop": "closed", "clients": 8, "batch": 8,
              "batches_per_client": 125, "corpus_keys": 1024,
              "value_bytes_min": 128, "value_bytes_max": 384,
              "zipf_s": 0.99, "tracing": False}

    def episode(self, seed: int, phase) -> Episode:
        p = self.params
        cell = Cell(CellSpec(transport=p["transport"], num_shards=p["hosts"],
                             mode=ReplicationMode.R3_2, seed=seed,
                             tracing=p["tracing"]))
        sim = cell.sim
        clients = [cell.connect_client() for _ in range(p["clients"])]
        keys = [b"rb-%d-%05d" % (seed, i) for i in range(p["corpus_keys"])]
        sizes = RandomStream(seed, "rb-sizes")
        expected = {key: _filler(b"%d|%s" % (seed, key), sizes.randint(
            p["value_bytes_min"], p["value_bytes_max"])) for key in keys}
        ep = Episode(set_latency_source="preload (the measured phase "
                                        "issues no SETs)")

        def preload(wid: int, client):
            for key in keys[wid::len(clients)]:
                result = yield from client.set(key, expected[key])
                if not result.ok:
                    ep.problems.append(f"preload SET {key!r} failed")
                ep.set_latency.append(result.latency)

        sim.run(until=sim.all_of([sim.process(preload(i, c))
                                  for i, c in enumerate(clients)]))
        digest = Digest()

        def worker(wid: int, client):
            sampler = ZipfSampler(RandomStream(seed, f"rb-{wid}"),
                                  len(keys), p["zipf_s"])
            for call in range(p["batches_per_client"]):
                wanted = [keys[r] for r in sampler.sample_n(p["batch"])]
                started = sim.now
                results = yield from client.get_multi(wanted)
                ep.get_latency.append(sim.now - started)
                for key, result in zip(wanted, results):
                    ep.attempted += 1
                    ep.gets += 1
                    ep.attempts += result.attempts
                    if result.status is GetStatus.HIT:
                        ep.hits += 1
                        if result.value != expected[key]:
                            ep.problems.append(
                                f"HIT on {key!r} returned bytes that "
                                f"were never preloaded")
                    elif result.status is GetStatus.MISS:
                        ep.problems.append(f"MISS on preloaded {key!r}")
                    else:
                        ep.failed += 1
                    digest.add(wid, call, key, result.status.name,
                               len(result.value or b""), result.attempts,
                               result.latency)

        before = cell_counters([cell])
        phase.begin()
        procs = [sim.process(worker(i, c)) for i, c in enumerate(clients)]
        sim.run(until=sim.all_of(procs))
        phase.end()
        ep.counters = counter_delta(before, cell_counters([cell]))
        ep.digest = digest.hexdigest()
        cell.close()
        return ep


# ---------------------------------------------------------------------------
# cell-mixed-rw: writes, evictions and single-key retry loops.
# ---------------------------------------------------------------------------


class CellMixedRw:
    """1RMA, R3_2 cell with a capped data region; 16 closed-loop clients
    issue single-key GET/SET/ERASE over a zipf keyspace larger than the
    cell holds, so evictions run and about half the GETs miss."""

    name = "cell-mixed-rw"
    params = {"transport": "1rma", "hosts": 50, "mode": "R3_2",
              "loop": "closed", "clients": 16, "ops_per_client": 300,
              "keyspace": 4096, "preload_keys": 1024, "zipf_s": 0.99,
              "get_share": 0.60, "set_share": 0.35, "erase_share": 0.05,
              "value_bytes_min": 64, "value_bytes_max": 4096,
              "data_region_bytes": 256 * 1024, "slab_bytes": 64 * 1024,
              "tracing": False}

    @staticmethod
    def stamped(key: bytes, writer: int, seq: int, size: int) -> bytes:
        head = b"%s|%d|%d|" % (key, writer, seq)
        return head + _filler(head, max(0, size - len(head)))

    def episode(self, seed: int, phase) -> Episode:
        p = self.params
        backend = BackendConfig(data_initial_bytes=p["data_region_bytes"],
                                data_virtual_limit=p["data_region_bytes"],
                                slab_bytes=p["slab_bytes"])
        cell = Cell(CellSpec(transport=p["transport"], num_shards=p["hosts"],
                             mode=ReplicationMode.R3_2, seed=seed,
                             backend_config=backend, tracing=p["tracing"]))
        sim = cell.sim
        clients = [cell.connect_client() for _ in range(p["clients"])]
        keys = [b"rw-%d-%06d" % (seed, i) for i in range(p["keyspace"])]
        # (writer, seq) -> (key, size) of every SET the benchmark issued.
        issued: Dict[tuple, tuple] = {}
        ep = Episode()
        sizes = RandomStream(seed, "rw-sizes")
        lo, hi = p["value_bytes_min"], p["value_bytes_max"]

        def set_op(client, writer: int, seq: int, key: bytes):
            size = sizes.randint(lo, hi)
            issued[(writer, seq)] = (key, size)
            return (yield from client.set(
                key, self.stamped(key, writer, seq, size)))

        preload_writer = len(clients)

        def preload():
            for i in range(p["preload_keys"]):
                result = yield from set_op(clients[0], preload_writer, i,
                                           keys[i])
                if not result.ok:
                    ep.problems.append(f"preload SET {keys[i]!r} failed")

        sim.run(until=sim.process(preload()))
        digest = Digest()

        def check_hit(key: bytes, value: bytes) -> None:
            parts = value.split(b"|", 3)
            try:
                stamp = (int(parts[1]), int(parts[2]))
            except (IndexError, ValueError):
                stamp = None
            origin = issued.get(stamp)
            if parts[0] != key or origin is None or origin[0] != key or \
                    value != self.stamped(key, stamp[0], stamp[1],
                                          origin[1]):
                ep.problems.append(
                    f"HIT on {key!r} returned a value no SET of that key "
                    f"wrote: {value[:40]!r}")

        def worker(wid: int, client):
            stream = RandomStream(seed, f"rw-{wid}")
            sampler = ZipfSampler(stream.child("keys"), len(keys),
                                  p["zipf_s"])
            for seq in range(p["ops_per_client"]):
                key = keys[sampler.sample()]
                draw = stream.random()
                if draw < p["get_share"]:
                    kind = "get"
                    result = yield from client.get(key)
                    ep.gets += 1
                    ep.get_latency.append(result.latency)
                    if result.status is GetStatus.HIT:
                        ep.hits += 1
                        check_hit(key, result.value)
                    bad = result.status is GetStatus.ERROR
                elif draw < p["get_share"] + p["set_share"]:
                    kind = "set"
                    result = yield from set_op(client, wid, seq, key)
                    ep.sets += 1
                    ep.set_latency.append(result.latency)
                    bad = result.status is SetStatus.FAILED
                else:
                    kind = "erase"
                    result = yield from client.erase(key)
                    bad = result.status is SetStatus.FAILED
                ep.attempted += 1
                ep.attempts += result.attempts
                ep.failed += bad
                digest.add(wid, seq, kind, key, result.status.name,
                           len(getattr(result, "value", None) or b""),
                           result.attempts, result.latency)

        before = cell_counters([cell])
        phase.begin()
        procs = [sim.process(worker(i, c)) for i, c in enumerate(clients)]
        sim.run(until=sim.all_of(procs))
        phase.end()
        ep.counters = counter_delta(before, cell_counters([cell]))
        ep.digest = digest.hexdigest()
        cell.close()
        return ep


# ---------------------------------------------------------------------------
# federation-traced: two zones, program tracing and flight recorder on.
# ---------------------------------------------------------------------------


class _RecordingDigest(OpDigest):
    """The zone's op digest, also keeping each op's kind/status/latency."""

    def __init__(self):
        super().__init__()
        self.records: List[tuple] = []

    def add(self, client, op, kind, key, status, value_len, latency):
        super().add(client, op, kind, key, status, value_len, latency)
        self.records.append((kind, status, latency))


class _BenchZoneShard(ZoneShard):
    """A :class:`ZoneShard` that reports its phases to the benchmark.

    The population stops offering load ``drain`` seconds before the
    horizon, so every offered op has completed (or was shed) when the
    run ends and offered == completed + shed holds exactly."""

    def __init__(self, spec: ZoneShardSpec, run: "_FederationRun"):
        super().__init__(spec)
        self.run = run

    def build(self) -> None:
        super().build()
        self.op_digest = _RecordingDigest()
        self.run.shards.append(self)

    def start(self) -> None:
        self.run.begin_measure()
        spec = self.spec
        start_zone_workload(self.sim, spec.zone, spec.zones,
                            self.fed_clients, self.generator, spec.workload,
                            spec.duration - self.run.drain, self.op_digest)

    def digest(self):
        self.run.end_measure()
        return super().digest()


class _FederationRun:
    def __init__(self, phase, drain: float):
        self.phase = phase
        self.drain = drain
        self.shards: List[_BenchZoneShard] = []
        self.before: Optional[Dict[str, float]] = None
        self.after: Optional[Dict[str, float]] = None

    def _counters(self) -> Dict[str, float]:
        return cell_counters([shard.cell for shard in self.shards])

    def begin_measure(self) -> None:
        if self.before is None:
            self.before = self._counters()
            self.phase.begin()

    def end_measure(self) -> None:
        if self.after is None:
            self.phase.end()
            self.after = self._counters()


class FederationTraced:
    """Two zones on the sequential shard executor, with span tracing and
    the flight recorder on: federated clients (local and WAN-remote
    GETs, fan-out SETs) plus an open-loop population per zone."""

    name = "federation-traced"
    params = {"zones": ["dc-a", "dc-b"], "executor": "sequential",
              "hosts_per_zone": 12, "transport": "pony", "tracing": True,
              "flight_recorder": True, "loop": "open (think-time) + "
              "open (population)", "fed_clients_per_zone": 80,
              "fanout_every": 2, "remote_every": 8,
              "population_clients_per_zone": 1000,
              "population_rate_per_client": 3.0, "population_drivers": 4,
              "duration_sim_s": 0.3, "population_drain_sim_s": 0.02}

    def episode(self, seed: int, phase) -> Episode:
        p = self.params
        zones = tuple(p["zones"])
        cell_spec = CellSpec(num_shards=p["hosts_per_zone"],
                             transport=p["transport"], seed=seed,
                             tracing=p["tracing"],
                             flight_recorder=p["flight_recorder"])
        fabric = FabricConfig()
        workload = ZoneWorkloadSpec(
            clients=p["fed_clients_per_zone"],
            fanout_every=p["fanout_every"], remote_every=p["remote_every"],
            population_clients=p["population_clients_per_zone"],
            population_rate=p["population_rate_per_client"],
            population_drivers=p["population_drivers"], seed=seed)
        run = _FederationRun(phase, p["population_drain_sim_s"])
        builders = [(_BenchZoneShard, (ZoneShardSpec(
            zone=zone, zones=zones, cell_spec=cell_spec,
            fabric_config=fabric, workload=workload,
            duration=p["duration_sim_s"]), run)) for zone in zones]
        report = ShardCoordinator(builders,
                                  lookahead=fabric.inter_zone_delay,
                                  run_for=p["duration_sim_s"]).run(
                                      parallel=False)

        ep = Episode()
        ep.counters = counter_delta(run.before, run.after)
        ep.counters["windows"] = report.windows
        ep.counters["wan_messages"] = report.messages_routed
        offered = shed = 0
        for shard, zone_digest in zip(run.shards, report.digests):
            for kind, status, latency in shard.op_digest.records:
                ep.attempted += 1
                ep.attempts += 1
                if kind == "set":
                    ep.sets += 1
                    ep.set_latency.append(latency)
                    ep.failed += status == SetStatus.FAILED.name
                else:
                    ep.gets += 1
                    ep.get_latency.append(latency)
                    ep.hits += status == GetStatus.HIT.name
                    ep.failed += status == GetStatus.ERROR.name
            pop = shard.generator.metrics
            ep.attempted += pop.offered
            ep.gets += pop.gets
            ep.hits += pop.hits
            ep.failed += pop.get_errors + pop.shed
            ep.attempts += pop.gets
            ep.get_latency.extend(pop.get_latency.samples())
            offered += pop.offered
            shed += pop.shed
            completed = pop.gets
            if pop.offered != completed + pop.shed + pop.thinned:
                ep.problems.append(
                    f"zone {zone_digest['zone']}: population offered "
                    f"{pop.offered} != completed {completed} + shed "
                    f"{pop.shed} + thinned {pop.thinned}")
        # Neither fed ops nor population results expose attempts; the
        # cells' retry counter supplies the extra ones.
        ep.attempts += ep.counters["retries"]
        ep.counters["population_offered"] = offered
        ep.counters["population_shed"] = shed
        stable = [{k: v for k, v in d.items() if k != "traces"}
                  for d in report.digests]
        ep.digest = hashlib.blake2b(
            json.dumps(stable, sort_keys=True, default=repr).encode(),
            digest_size=16).hexdigest()
        for shard in run.shards:
            shard.cell.close()
        return ep


WORKLOADS = {w.name: w for w in (CellReadBatched(), CellMixedRw(),
                                 FederationTraced())}
