"""Pony Express: a software-defined NIC with engines, scale-out, and SCAR.

Pony Express [31] runs network processing in *engines* — single-threaded
software loops that may time-multiplex one core or each scale out to their
own core in response to load (§7.2.4, Fig 15). Every op consumes engine
service time on both the initiating and serving host; queueing behind busy
engines is what raises tail latency before scale-out kicks in.

Because the NIC is software, CliqueMap installs a custom op: Scan-and-Read
(SCAR, §6.3). The serving engine scans the fetched Bucket for the wanted
KeyHash and follows the IndexEntry pointer to the DataEntry in the same
operation, returning bucket + datum in one round trip. The scan program is
a pure function over raw bucket bytes, supplied by CliqueMap at setup —
mirroring deployment of NIC-resident code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from ..net import Host
from ..sim import Event, Hold, Resource, Simulator
from ..telemetry import NULL_SPAN
from .base import (RMA_REQUEST_BYTES, RMA_RESPONSE_HEADER_BYTES, Transport)
from .memory import RegionRevokedError, RmaOutOfBoundsError


@dataclass
class PonyCostModel:
    """Engine service times and messaging costs."""

    client_tx: float = 0.40e-6        # initiate an op
    client_rx: float = 0.45e-6        # process a completion
    server_read: float = 0.50e-6      # serve a one-sided read
    scar_scan: float = 0.18e-6        # extra bucket-scan work for SCAR
    batch_entry: float = 0.06e-6      # each extra entry of a coalesced read
    per_kilobyte: float = 0.012e-6    # payload handling per KB per side
    msg_thread_wakeup: float = 2.6e-6  # wake a server app thread (MSG mode)
    msg_app_cpu: float = 1.2e-6       # server application lookup code


@dataclass
class PonyScaleConfig:
    """Load-driven engine scale-out policy."""

    base_engines: int = 1
    max_engines: int = 4
    sample_interval: float = 200e-6
    scale_up_threshold: float = 0.80
    scale_down_threshold: float = 0.25


class _EnginePass(Hold):
    """One pass through a Pony engine: hold a slot, then charge the CPU."""

    __slots__ = ("_group", "_service_time")

    def __init__(self, group: "PonyEngineGroup", service_time: float):
        self._group = group
        self._service_time = service_time
        super().__init__(group.engines)

    def _begin(self) -> float:
        return self._service_time

    def _end(self) -> None:
        self._group.host.charge_inline(self._service_time, "pony")


class PonyEngineGroup:
    """The Pony engines on one host: a served queue with dynamic capacity."""

    def __init__(self, sim: Simulator, host: Host,
                 scale: PonyScaleConfig):
        self.sim = sim
        self.host = host
        self.scale = scale
        self.engines = Resource(sim, capacity=scale.base_engines,
                                name=f"pony:{host.name}")
        # (time, engine_count) capacity changes, for the Fig 15 heatmap.
        self.scale_history: List[Tuple[float, int]] = [(sim.now,
                                                        scale.base_engines)]
        self._monitor_started = False

    @property
    def engine_count(self) -> int:
        return self.engines.capacity

    def serve(self, service_time: float) -> Event:
        """Occupy an engine for ``service_time``; charges host CPU.

        Returns the event to yield: it fires when the engine pass ends,
        after the CPU charge and the engine's release.
        """
        if not self._monitor_started:
            self._start_monitor()
        return _EnginePass(self, service_time)

    def _start_monitor(self) -> None:
        self._monitor_started = True
        proc = self.sim.process(self._monitor(), name=f"pony-mon:{self.host.name}")
        proc.defused = True

    def _monitor(self) -> Generator:
        """Periodically resize the engine pool based on recent utilization."""
        ckpt = self.engines.checkpoint()
        while True:
            yield self.sim.timeout(self.scale.sample_interval)
            if not self.host.alive:
                continue
            util = self.engines.utilization_since(ckpt)
            ckpt = self.engines.checkpoint()
            cap = self.engines.capacity
            if util > self.scale.scale_up_threshold and \
                    cap < self.scale.max_engines:
                self.engines.set_capacity(cap + 1)
                self.scale_history.append((self.sim.now, cap + 1))
            elif util < self.scale.scale_down_threshold and \
                    cap > self.scale.base_engines:
                self.engines.set_capacity(cap - 1)
                self.scale_history.append((self.sim.now, cap - 1))

    def engines_at(self, t: float) -> int:
        """Engine count in effect at time ``t`` (for heatmap rendering)."""
        count = self.scale_history[0][1]
        for at, cap in self.scale_history:
            if at > t:
                break
            count = cap
        return count


class PonyTransport(Transport):
    """Software-NIC transport: reads, SCAR, and two-sided messaging."""

    name = "pony"
    supports_scar = True

    def __init__(self, sim, fabric, cost_model: Optional[PonyCostModel] = None,
                 scale: Optional[PonyScaleConfig] = None,
                 op_timeout: float = 200e-6):
        super().__init__(sim, fabric, op_timeout)
        self.cost = cost_model or PonyCostModel()
        self.scale = scale or PonyScaleConfig()
        self.engine_groups: Dict[str, PonyEngineGroup] = {}
        # host -> registered message handlers (two-sided MSG mode).
        self._msg_handlers: Dict[str, Dict[str, object]] = {}

    # -- engines ---------------------------------------------------------

    def attach(self, host: Host):
        endpoint = super().attach(host)
        if host.name not in self.engine_groups:
            self.engine_groups[host.name] = PonyEngineGroup(
                self.sim, host, self.scale)
        return endpoint

    def engine_group(self, host: Host) -> PonyEngineGroup:
        group = self.engine_groups.get(host.name)
        if group is None:
            self.attach(host)
            group = self.engine_groups[host.name]
        return group

    def _payload_cost(self, nbytes: int) -> float:
        return nbytes / 1024.0 * self.cost.per_kilobyte

    # -- one-sided read ----------------------------------------------------

    def read(self, client_host: Host, server_name: str, region_id: int,
             offset: int, size: int, trace=None) -> Generator:
        """One-sided read served by the remote Pony engines."""
        trace = trace or NULL_SPAN
        tx = trace.child("nic.tx")
        yield self.engine_group(client_host).serve(self.cost.client_tx)
        tx.finish()
        yield self.fabric.deliver(client_host,
                                  self._remote_host(server_name),
                                  RMA_REQUEST_BYTES, trace=trace)
        endpoint = yield from self._check_remote(server_name, client_host)
        server_group = self.engine_group(endpoint.host)
        serve_span = trace.child("backend.serve", host=server_name)
        yield server_group.serve(self.cost.server_read +
                                 self._payload_cost(size))
        window = self._resolve_or_fail(endpoint, region_id)
        data = window.read(offset, size)  # the snapshot instant
        serve_span.finish()
        corrupted = yield self.fabric.deliver(
            endpoint.host, client_host,
            len(data) + RMA_RESPONSE_HEADER_BYTES, trace=trace)
        data = self._maybe_corrupt(data, corrupted)
        rx = trace.child("nic.rx")
        yield self.engine_group(client_host).serve(
            self.cost.client_rx + self._payload_cost(len(data)))
        rx.finish()
        self.counters.reads += 1
        self.counters.bytes_fetched += len(data)
        return data

    def read_multi(self, client_host: Host, server_name: str,
                   requests, trace=None) -> Generator:
        """Coalesced read: one engine op per side serves the whole batch.

        The engine dispatch (``client_tx``/``server_read``/``client_rx``)
        is paid once; each extra entry adds only ``batch_entry`` scan work
        plus payload handling, which is where the amortization of §7.1
        comes from.
        """
        if not requests:
            return []
        trace = trace or NULL_SPAN
        n = len(requests)
        span = trace.child("nic.batch", entries=n)
        req_bytes = self._batch_request_bytes(n)
        tx_cost = self.cost.client_tx + self._payload_cost(req_bytes)
        yield self.engine_group(client_host).serve(tx_cost)
        yield self.fabric.deliver(client_host,
                                  self._remote_host(server_name),
                                  req_bytes, parts=n, trace=span)
        endpoint = yield from self._check_remote(server_name, client_host)
        server_group = self.engine_group(endpoint.host)
        serve_span = span.child("backend.serve", host=server_name, op="batch")
        total_size = sum(size for _r, _o, size in requests)
        serve_cost = (self.cost.server_read +
                      self.cost.batch_entry * (n - 1) +
                      self._payload_cost(total_size))
        yield server_group.serve(serve_cost)
        results = self._read_entries(endpoint, requests)
        serve_span.finish()
        resp_bytes = self._batch_response_bytes(results)
        corrupted = yield self.fabric.deliver(
            endpoint.host, client_host, resp_bytes, parts=n, trace=span)
        results = self._corrupt_largest(results, corrupted)
        rx_cost = self.cost.client_rx + self._payload_cost(resp_bytes)
        yield self.engine_group(client_host).serve(rx_cost)
        span.finish()
        self.counters.bytes_fetched += sum(
            len(r) for r in results if isinstance(r, bytes))
        self._observe_batch(n, tx_cost + serve_cost + rx_cost)
        return results

    # -- SCAR ---------------------------------------------------------------

    def scar(self, client_host: Host, server_name: str,
             index_region_id: int, bucket_offset: int, bucket_size: int,
             key_hash: bytes, trace=None) -> Generator:
        """Scan-and-Read: returns ``(bucket_bytes, data_bytes_or_None)``.

        The serving engine fetches the bucket, runs the installed scan
        program against ``key_hash``, and — on a hit — follows the pointer
        to the DataEntry, all within one network round trip.
        """
        trace = trace or NULL_SPAN
        tx = trace.child("nic.tx")
        yield self.engine_group(client_host).serve(self.cost.client_tx)
        tx.finish()
        yield self.fabric.deliver(client_host,
                                  self._remote_host(server_name),
                                  RMA_REQUEST_BYTES + len(key_hash),
                                  trace=trace)
        endpoint = yield from self._check_remote(server_name, client_host)
        if endpoint.scar_program is None:
            raise RegionRevokedError(index_region_id)

        server_group = self.engine_group(endpoint.host)
        serve_span = trace.child("backend.serve", host=server_name, op="scar")
        yield server_group.serve(self.cost.server_read +
                                 self.cost.scar_scan +
                                 self._payload_cost(bucket_size))
        window = self._resolve_or_fail(endpoint, index_region_id)
        bucket = window.read(bucket_offset, bucket_size)

        data: Optional[bytes] = None
        pointer = endpoint.scar_program(bucket, key_hash)
        if pointer is not None:
            data_region_id, data_offset, data_size = pointer
            try:
                data_window = endpoint.resolve(data_region_id)
                yield server_group.serve(self._payload_cost(data_size))
                data = data_window.read(data_offset, data_size)
            except (RegionRevokedError, RmaOutOfBoundsError):
                # Pointer raced with a reshape/eviction; return just the
                # bucket — the client validates and retries.
                data = None
        serve_span.finish()

        resp_bytes = (len(bucket) + (len(data) if data else 0) +
                      RMA_RESPONSE_HEADER_BYTES)
        corrupted = yield self.fabric.deliver(endpoint.host, client_host,
                                              resp_bytes, trace=trace)
        if corrupted:
            # The flip lands in whichever section dominates the response:
            # the data copy when the scan hit, the bucket otherwise.
            if data:
                data = self._maybe_corrupt(data, corrupted)
            else:
                bucket = self._maybe_corrupt(bucket, corrupted)
        rx = trace.child("nic.rx")
        yield self.engine_group(client_host).serve(
            self.cost.client_rx + self._payload_cost(resp_bytes))
        rx.finish()
        self.counters.scars += 1
        self.counters.bytes_fetched += resp_bytes
        return bucket, data

    # -- two-sided messaging (MSG lookup strategy) ----------------------------

    def register_message_handler(self, host: Host, name: str,
                                 handler) -> None:
        """``handler(request_payload) -> (response_payload, response_bytes)``.

        The handler runs on a woken application thread (host CPU), modeling
        the two-sided lookup strategy of Fig 7.
        """
        self.attach(host)
        self._msg_handlers.setdefault(host.name, {})[name] = handler

    def message(self, client_host: Host, server_name: str, name: str,
                request_bytes: int, request_payload, trace=None) -> Generator:
        """Send a two-sided message and await the application's reply."""
        trace = trace or NULL_SPAN
        tx = trace.child("nic.tx")
        yield self.engine_group(client_host).serve(
            self.cost.client_tx + self._payload_cost(request_bytes))
        tx.finish()
        yield self.fabric.deliver(client_host,
                                  self._remote_host(server_name),
                                  request_bytes, trace=trace)
        endpoint = yield from self._check_remote(server_name, client_host)
        handlers = self._msg_handlers.get(server_name, {})
        if name not in handlers:
            raise RegionRevokedError(-1)

        server_host = endpoint.host
        server_group = self.engine_group(server_host)
        serve_span = trace.child("backend.serve", host=server_name, op="msg")
        yield server_group.serve(self.cost.server_read +
                                 self._payload_cost(request_bytes))
        # Wake an application thread and run the handler on host CPU —
        # the expensive part two-sided designs pay (§6.3).
        app_span = serve_span.child("app-thread")
        yield server_host.execute(self.cost.msg_thread_wakeup +
                                  self.cost.msg_app_cpu, "msg-app")
        response_payload, response_bytes = handlers[name](request_payload)
        app_span.finish()
        yield server_group.serve(self.cost.client_tx +
                                 self._payload_cost(response_bytes))
        serve_span.finish()
        yield self.fabric.deliver(server_host, client_host,
                                  response_bytes +
                                  RMA_RESPONSE_HEADER_BYTES, trace=trace)
        rx = trace.child("nic.rx")
        yield self.engine_group(client_host).serve(
            self.cost.client_rx + self._payload_cost(response_bytes))
        rx.finish()
        self.counters.messages += 1
        return response_payload

    def _remote_host(self, server_name: str) -> Host:
        endpoint = self.endpoints.get(server_name)
        if endpoint is not None:
            return endpoint.host
        return self.fabric.host(server_name)
