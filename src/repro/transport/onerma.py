"""1RMA transport: an all-hardware serving path with PCIe modeling.

1RMA (§7.2.4) trades programmability for a fully-hardware datapath: no
SCAR primitive (each GET is 2xR, two fabric RTTs), but a heavily-optimized
NIC/memory interaction so the application-visible RTT is lower than
packet-oriented systems and — crucially — the serving path has *no
software bottleneck*, so latency stays flat as load ramps (Fig 16/17).

The NIC emits *command timestamps* measuring combined fabric + remote-PCIe
latency per op, which is what Figure 16 plots as a heatmap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Tuple

from ..net import Host
from ..sim import Resource
from ..telemetry import NULL_SPAN
from .base import RMA_REQUEST_BYTES, RMA_RESPONSE_HEADER_BYTES, Transport


@dataclass
class OneRmaCostModel:
    """Timing/CPU constants for the 1RMA path."""

    client_submit_cpu: float = 0.30e-6     # command submission
    client_complete_cpu: float = 0.30e-6   # completion handling
    server_nic_latency: float = 0.5e-6     # NIC command execution
    pcie_base_latency: float = 0.6e-6      # PCIe round trip at server
    pcie_bytes_per_sec: float = 16e9       # server PCIe read bandwidth
    # 1RMA's explicit congestion control: each initiator NIC caps its
    # outstanding solicited bytes; ops beyond the window queue locally.
    solicitation_window_ops: int = 64


class OneRmaTransport(Transport):
    """One-sided reads over the 1RMA hardware path, with NIC timestamps."""

    name = "1rma"
    supports_scar = False

    def __init__(self, sim, fabric, cost_model: OneRmaCostModel = None,
                 op_timeout: float = 200e-6,
                 record_timestamps: bool = True):
        super().__init__(sim, fabric, op_timeout)
        self.cost = cost_model or OneRmaCostModel()
        self.record_timestamps = record_timestamps
        # (completion_time, fabric+pcie_latency) samples, as emitted by
        # the NIC's command executor (Fig 16).
        self.command_timestamps: List[Tuple[float, float]] = []
        self._windows = {}  # per-initiator solicitation windows

    def _window_for(self, host: Host) -> Resource:
        window = self._windows.get(host.name)
        if window is None:
            window = Resource(self.sim,
                              capacity=self.cost.solicitation_window_ops,
                              name=f"1rma-window:{host.name}")
            self._windows[host.name] = window
        return window

    def read(self, client_host: Host, server_name: str, region_id: int,
             offset: int, size: int, trace=None) -> Generator:
        """Perform a one-sided 1RMA read; returns the snapshot bytes."""
        trace = trace or NULL_SPAN
        tx = trace.child("nic.tx")
        yield client_host.execute(self.cost.client_submit_cpu,
                                  "rma-client")
        window = self._window_for(client_host)
        slot = window.request()
        yield slot
        tx.finish()
        try:
            return (yield from self._read_solicited(
                client_host, server_name, region_id, offset, size, trace))
        finally:
            window.release(slot)

    def _read_solicited(self, client_host: Host, server_name: str,
                        region_id: int, offset: int,
                        size: int, trace=NULL_SPAN) -> Generator:
        issued_at = self.sim.now  # NIC-side measurement starts here
        yield self.fabric.deliver(client_host,
                                  self._remote_host(server_name),
                                  RMA_REQUEST_BYTES, trace=trace)
        endpoint = yield from self._check_remote(server_name, client_host)
        serve_span = trace.child("backend.serve", host=server_name)
        yield self.sim.timeout(self.cost.server_nic_latency)
        window = self._resolve_or_fail(endpoint, region_id)
        # PCIe read of the payload out of server memory.
        yield self.sim.timeout(self.cost.pcie_base_latency +
                               size / self.cost.pcie_bytes_per_sec)
        data = window.read(offset, size)  # the snapshot instant
        serve_span.finish()
        corrupted = yield self.fabric.deliver(
            endpoint.host, client_host,
            len(data) + RMA_RESPONSE_HEADER_BYTES, trace=trace)
        data = self._maybe_corrupt(data, corrupted)
        if self.record_timestamps:
            self.command_timestamps.append(
                (self.sim.now, self.sim.now - issued_at))
        rx = trace.child("nic.rx")
        yield client_host.execute(self.cost.client_complete_cpu,
                                  "rma-client")
        rx.finish()
        self.counters.reads += 1
        self.counters.bytes_fetched += len(data)
        return data

    def read_multi(self, client_host: Host, server_name: str,
                   requests, trace=None) -> Generator:
        """Coalesced read: one command, one window slot, one PCIe transaction.

        The NIC executes the whole batch as a single solicited command:
        one ``pcie_base_latency`` plus the summed payload over PCIe
        bandwidth, and a single command timestamp — batching preserves
        the Fig 16 measurement semantics (one command, one sample).
        """
        if not requests:
            return []
        trace = trace or NULL_SPAN
        n = len(requests)
        span = trace.child("nic.batch", entries=n)
        submit_cost = self.cost.client_submit_cpu
        yield client_host.execute(submit_cost, "rma-client")
        window = self._window_for(client_host)
        slot = window.request()
        yield slot
        try:
            issued_at = self.sim.now
            yield self.fabric.deliver(client_host,
                                      self._remote_host(server_name),
                                      self._batch_request_bytes(n),
                                      parts=n, trace=span)
            endpoint = yield from self._check_remote(server_name, client_host)
            serve_span = span.child("backend.serve", host=server_name,
                                    op="batch")
            yield self.sim.timeout(self.cost.server_nic_latency)
            total_size = sum(size for _r, _o, size in requests)
            yield self.sim.timeout(self.cost.pcie_base_latency +
                                   total_size / self.cost.pcie_bytes_per_sec)
            results = self._read_entries(endpoint, requests)
            serve_span.finish()
            corrupted = yield self.fabric.deliver(
                endpoint.host, client_host,
                self._batch_response_bytes(results), parts=n, trace=span)
            results = self._corrupt_largest(results, corrupted)
            if self.record_timestamps:
                self.command_timestamps.append(
                    (self.sim.now, self.sim.now - issued_at))
        finally:
            window.release(slot)
        complete_cost = self.cost.client_complete_cpu
        yield client_host.execute(complete_cost, "rma-client")
        span.finish()
        self.counters.bytes_fetched += sum(
            len(r) for r in results if isinstance(r, bytes))
        self._observe_batch(n, submit_cost + complete_cost)
        return results

    def _remote_host(self, server_name: str) -> Host:
        endpoint = self.endpoints.get(server_name)
        if endpoint is not None:
            return endpoint.host
        return self.fabric.host(server_name)
