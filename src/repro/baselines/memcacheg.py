"""MemcacheG: the fully RPC-based KVCS baseline (§2.1).

Google's internal Memcached translation runs every operation — GETs
included — through the production RPC stack, inheriting its feature
wealth (auth, versioning, ACLs) and its >50 CPU-µs per-op cost. It is
the system CliqueMap's RMA read path is measured against: same sharded
cluster shape, same LRU caching behavior, no RMA anywhere.

Implemented here as an independent system (not a CliqueMap mode) so the
comparison benches exercise two genuinely different serving paths over
the same simulated substrate.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from ..net import Fabric, FabricConfig, Host, HostConfig
from ..rpc import (HandlerContext, Principal, RpcError, RpcServer,
                   connect as rpc_connect)
from ..sim import Simulator
from ..core.hashing import default_key_hash


@dataclass
class MemcacheGConfig:
    """Server tunables."""

    capacity_bytes: int = 64 << 20
    get_cpu: float = 1.2e-6          # application lookup code (dict + LRU)
    set_cpu: float = 1.8e-6
    per_kilobyte_cpu: float = 0.10e-6


@dataclass
class MemcacheGStats:
    gets: int = 0
    hits: int = 0
    sets: int = 0
    deletes: int = 0
    evictions: int = 0


class MemcacheGServer:
    """One cache shard: an LRU dict behind RPC handlers."""

    def __init__(self, sim: Simulator, host: Host, name: str,
                 config: Optional[MemcacheGConfig] = None):
        self.sim = sim
        self.host = host
        self.name = name
        self.config = config or MemcacheGConfig()
        self.stats = MemcacheGStats()
        self._store: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._used_bytes = 0
        self.rpc_server = RpcServer(sim, host, f"memcacheg/{name}")
        self.rpc_server.register("Get", self._handle_get)
        self.rpc_server.register("Set", self._handle_set)
        self.rpc_server.register("Delete", self._handle_delete)

    @property
    def component(self) -> str:
        return f"memcacheg:{self.name}"

    def _charge(self, base: float, nbytes: int) -> Generator:
        yield self.host.execute(
            base + nbytes / 1024.0 * self.config.per_kilobyte_cpu,
            self.component)

    def _handle_get(self, payload, context: HandlerContext) -> Generator:
        key: bytes = payload["key"]
        yield from self._charge(self.config.get_cpu, len(key))
        self.stats.gets += 1
        value = self._store.get(key)
        if value is None:
            return {"found": False}
        self._store.move_to_end(key)    # LRU touch: free on the RPC path
        self.stats.hits += 1
        context.response_size_override = len(value) + 32
        return {"found": True, "value": value}

    def _handle_set(self, payload, context: HandlerContext) -> Generator:
        key: bytes = payload["key"]
        value: bytes = payload["value"]
        yield from self._charge(self.config.set_cpu, len(key) + len(value))
        old = self._store.pop(key, None)
        if old is not None:
            self._used_bytes -= len(key) + len(old)
        self._store[key] = value
        self._used_bytes += len(key) + len(value)
        while self._used_bytes > self.config.capacity_bytes and self._store:
            evicted_key, evicted_value = self._store.popitem(last=False)
            self._used_bytes -= len(evicted_key) + len(evicted_value)
            self.stats.evictions += 1
        self.stats.sets += 1
        return {"stored": True}

    def _handle_delete(self, payload, context: HandlerContext) -> Generator:
        key: bytes = payload["key"]
        yield from self._charge(self.config.get_cpu, len(key))
        old = self._store.pop(key, None)
        if old is not None:
            self._used_bytes -= len(key) + len(old)
        self.stats.deletes += 1
        return {"deleted": old is not None}

    @property
    def resident_keys(self) -> int:
        return len(self._store)


class MemcacheGCluster:
    """A sharded MemcacheG deployment on the simulated fabric."""

    def __init__(self, sim: Optional[Simulator] = None,
                 fabric: Optional[Fabric] = None,
                 num_shards: int = 4,
                 config: Optional[MemcacheGConfig] = None,
                 host_config: Optional[HostConfig] = None):
        self.sim = sim or Simulator()
        self.fabric = fabric or Fabric(self.sim, FabricConfig())
        self.num_shards = num_shards
        self.servers: List[MemcacheGServer] = []
        for shard in range(num_shards):
            host = self.fabric.add_host(f"host/memcacheg-{shard}",
                                        host_config)
            self.servers.append(MemcacheGServer(
                self.sim, host, f"shard-{shard}", config))
        self._client_count = 0

    def shard_for(self, key: bytes) -> MemcacheGServer:
        key_hash = default_key_hash(key)
        shard = int.from_bytes(key_hash[8:], "little") % self.num_shards
        return self.servers[shard]

    def make_client(self, host: Optional[Host] = None
                    ) -> "MemcacheGClient":
        if host is None:
            self._client_count += 1
            host = self.fabric.add_host(
                f"host/memcacheg-client-{self._client_count}")
        return MemcacheGClient(self, host)


_client_ids = itertools.count(1)


class MemcacheGClient:
    """Key-sharded RPC client for the cluster."""

    def __init__(self, cluster: MemcacheGCluster, host: Host,
                 rpc_deadline: float = 50e-3):
        self.cluster = cluster
        self.sim = cluster.sim
        self.host = host
        self.rpc_deadline = rpc_deadline
        self.client_id = next(_client_ids)
        self.principal = Principal(f"memcacheg-client-{self.client_id}")
        self._channels: Dict[str, object] = {}

    def _channel(self, server: MemcacheGServer):
        channel = self._channels.get(server.name)
        if channel is None:
            channel = rpc_connect(self.sim, self.cluster.fabric, self.host,
                                  server.rpc_server, self.principal,
                                  client_component="memcacheg-client")
            self._channels[server.name] = channel
        return channel

    def get(self, key: bytes) -> Generator:
        """Returns ``(found, value)``; failures surface as not-found."""
        server = self.cluster.shard_for(key)
        try:
            reply = yield from self._channel(server).call(
                "Get", {"key": key}, deadline=self.rpc_deadline)
        except RpcError:
            return False, None
        return reply.get("found", False), reply.get("value")

    def set(self, key: bytes, value: bytes) -> Generator:
        server = self.cluster.shard_for(key)
        try:
            reply = yield from self._channel(server).call(
                "Set", {"key": key, "value": value},
                deadline=self.rpc_deadline,
                request_size=len(key) + len(value) + 32)
        except RpcError:
            return False
        return reply.get("stored", False)

    def delete(self, key: bytes) -> Generator:
        server = self.cluster.shard_for(key)
        try:
            reply = yield from self._channel(server).call(
                "Delete", {"key": key}, deadline=self.rpc_deadline)
        except RpcError:
            return False
        return reply.get("deleted", False)
