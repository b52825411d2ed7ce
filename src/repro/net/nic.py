"""NIC and link models: serialization delay, FIFO queueing, byte counters.

A :class:`Link` is a single serializing server: a transfer of N wire bytes
holds the link for ``N / rate`` simulated seconds, and competing transfers
queue FIFO. Each host gets a NIC with an independent egress and ingress
link — which is exactly what makes *incast* (many senders converging on
one receiver's ingress link, Fig 12) and *antagonist load* (a bandwidth
hog on one server's NIC, Fig 11) emerge naturally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from ..sim import Event, FifoServer, Simulator


def gbps(value: float) -> float:
    """Convert gigabits/second to bytes/second."""
    return value * 1e9 / 8.0


@dataclass
class MtuConfig:
    """Framing parameters; payloads are split into MTU-sized frames."""

    mtu_bytes: int = 5000          # 5KB MTU, as in the paper's testbed (§7.2.4)
    header_bytes: int = 66         # per-frame header/trailer overhead

    def wire_bytes(self, payload: int) -> int:
        """Total bytes on the wire for a payload, including frame headers."""
        if payload <= 0:
            return self.header_bytes
        frames = math.ceil(payload / self.mtu_bytes)
        return payload + frames * self.header_bytes

    def frames(self, payload: int) -> int:
        return max(1, math.ceil(payload / self.mtu_bytes))


class Link:
    """A unidirectional serializing link of fixed rate.

    A closed-form FIFO (:class:`~repro.sim.resources.FifoServer`): a
    transfer's finish time is computed when it is queued, and its end is
    one scheduled entry, with no request or grant event.
    """

    def __init__(self, sim: Simulator, rate_bytes_per_sec: float,
                 name: str = ""):
        if rate_bytes_per_sec <= 0:
            raise ValueError("link rate must be positive")
        self.sim = sim
        self.name = name
        self.rate = rate_bytes_per_sec
        self._server = FifoServer(sim, name=f"link:{name}")
        self.bytes_carried = 0

    def send(self, wire_bytes: int, fn: Callable, *args: Any) -> None:
        """Queue ``wire_bytes``; ``fn(*args)`` runs once the last byte left.

        The callback counts the bytes (``bytes_carried``) itself, so it
        can order the count with the rest of its bookkeeping.
        """
        self._server.reserve(wire_bytes / self.rate, fn, *args)

    def transmit(self, wire_bytes: int) -> Event:
        """Serialize ``wire_bytes``; the event fires when they are through."""
        done = _Transmission(self, wire_bytes)
        self.send(wire_bytes, done._carried)
        return done


class _Transmission(Event):
    """One :meth:`Link.transmit`, as the event its sender waits on."""

    __slots__ = ("_link", "_wire_bytes")

    def __init__(self, link: Link, wire_bytes: int):
        super().__init__(link.sim)
        self._link = link
        self._wire_bytes = wire_bytes

    def _carried(self) -> None:
        # The link's end-of-job entry is this event's trigger: count the
        # bytes, then wake the waiters in the same step.
        self._link.bytes_carried += self._wire_bytes
        self._triggered = True
        self._process()


class Nic:
    """A host's network interface: an egress link and an ingress link."""

    def __init__(self, sim: Simulator, host_name: str,
                 rate_bytes_per_sec: float, mtu: MtuConfig):
        self.sim = sim
        self.host_name = host_name
        self.mtu = mtu
        self.egress = Link(sim, rate_bytes_per_sec, f"{host_name}.egress")
        self.ingress = Link(sim, rate_bytes_per_sec, f"{host_name}.ingress")

    @property
    def bytes_sent(self) -> int:
        return self.egress.bytes_carried

    @property
    def bytes_received(self) -> int:
        return self.ingress.bytes_carried
