"""Shared-resource primitives for simulation processes.

:class:`Resource` models a pool of interchangeable servers (CPU cores, Pony
engines): processes request a slot, hold it for some simulated time, and
release it. It tracks utilization so higher layers (Pony Express
scale-out, CPU accounting) can make load-driven decisions. :class:`Hold`
turns one timed hold of a slot into one event. :class:`FifoServer` is the
closed form of a single FIFO server (a NIC link). :class:`Store` is a FIFO
queue of items between producer and consumer processes.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from .core import Event, SimulationError, Simulator


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "_seq")

    def __init__(self, resource: "Resource", priority: int, seq: int):
        # Inlined Event.__init__: one Request per RPC hop makes this one
        # of the hottest allocation sites in a cell run.
        self.sim = resource.sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.defused = False
        self.resource = resource
        self.priority = priority
        self._seq = seq

    def sort_key(self):
        return (self.priority, self._seq)


class Resource:
    """A pool of ``capacity`` identical slots with a priority/FIFO queue."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self._capacity = capacity
        self._users: List[Request] = []
        self._queue: List[Request] = []
        self._seq = 0
        # Utilization accounting: integral of busy slots over time.
        self._busy_integral = 0.0
        self._last_change = sim.now

    # -- capacity ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    def set_capacity(self, capacity: int) -> None:
        """Grow or shrink the pool; shrinking never evicts current users."""
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self._account()
        self._capacity = capacity
        self._grant()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    # -- accounting ---------------------------------------------------------

    def _account(self) -> None:
        now = self.sim.now
        if now != self._last_change:
            self._busy_integral += \
                len(self._users) * (now - self._last_change)
            self._last_change = now

    def utilization(self, since_integral: float = 0.0,
                    since_time: float = 0.0) -> float:
        """Mean busy-slot count per slot since the given checkpoint."""
        self._account()
        elapsed = self.sim.now - since_time
        if elapsed <= 0:
            return 0.0
        return (self._busy_integral - since_integral) / elapsed / self._capacity

    def checkpoint(self):
        """Return an opaque checkpoint for :meth:`utilization`."""
        self._account()
        return (self._busy_integral, self.sim.now)

    def utilization_since(self, checkpoint) -> float:
        return self.utilization(*checkpoint)

    # -- request/release ---------------------------------------------------

    def claim(self) -> Optional[Request]:
        """Take an idle slot synchronously, or return ``None``.

        Succeeds exactly when :meth:`request` would grant on its
        uncontended fast path (a free slot and nobody queued), but
        schedules no grant event: the caller holds the slot from now.
        Pair it with :meth:`release` as usual.
        """
        if self._queue or len(self._users) >= self._capacity:
            return None
        self._seq += 1
        req = Request(self, 0, self._seq)
        req._triggered = True
        req._processed = True
        req.callbacks = None
        self._account()
        self._users.append(req)
        return req

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event triggers when it is granted."""
        self._seq += 1
        req = Request(self, priority, self._seq)
        if not self._queue and len(self._users) < self._capacity:
            # Uncontended fast path: an idle slot and nobody queued ahead
            # means _grant() would hand the new request straight through —
            # skip the insort/pop round-trip it would take to get there.
            self._account()
            self._users.append(req)
            req.succeed(req)
        else:
            # A slot frees up only through release()/set_capacity(), which
            # grant from the queue themselves, so queueing is all there
            # is to do. A request no more urgent than the tail sorts last
            # (its seq is the largest): append instead of bisecting.
            queue = self._queue
            if not queue or queue[-1].priority <= priority:
                queue.append(req)
            else:
                bisect.insort(queue, req, key=Request.sort_key)
        return req

    def release(self, request: Request) -> None:
        """Return a previously-granted slot to the pool."""
        if request in self._users:
            self._account()
            self._users.remove(request)
            if self._queue:
                self._grant()
        elif request in self._queue:
            self._queue.remove(request)
        else:
            raise SimulationError("release of unknown request")

    def _grant(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            req = self._queue.pop(0)
            self._account()
            self._users.append(req)
            req.succeed(req)


class Hold(Event):
    """One timed hold of a :class:`Resource` slot, as a single event.

    The event triggers when the hold ends. An idle slot is taken with
    :meth:`Resource.claim` and the end is scheduled right away; otherwise
    the slot is requested and a grant callback schedules the end. Either
    way the holder's process wakes once, at the end, instead of once at
    the grant and once more when its timeout fires.

    Subclasses supply ``_begin()``, run at the grant and returning the
    hold's duration (an exception fails the hold and frees the slot),
    and ``_end()``, run when the hold ends. ``_end()`` and the slot's
    release run before any waiter callback, in the order a generator
    holding the slot would have done them before resuming its caller.
    """

    __slots__ = ("_resource", "_request")

    def __init__(self, resource: Resource, priority: int = 0):
        # Inlined Event.__init__: one Hold per CPU burst or engine pass.
        self.sim = resource.sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.defused = False
        self._resource = resource
        self._request = resource.claim()
        if self._request is None:
            self._request = resource.request(priority)
            self._request.callbacks.append((self._granted, ()))
        else:
            self._arm()

    def _begin(self) -> float:
        raise NotImplementedError

    def _end(self) -> None:
        raise NotImplementedError

    def _granted(self, _request: Request) -> None:
        self._arm()

    def _arm(self) -> None:
        sim = self.sim
        try:
            duration = self._begin()
        except Exception as exc:  # noqa: BLE001 - surfaced to the waiter
            self._resource.release(self._request)
            self._request = None
            sim.trigger_at(self, sim.now, exc, ok=False)
            return
        sim.trigger_at(self, sim.now + duration)

    def _process(self) -> None:
        request = self._request
        if request is not None:
            self._end()
            self._resource.release(request)
            self._request = None
        Event._process(self)


class FifoServer:
    """A single FIFO server in closed form: no request or grant events.

    With one server and strict arrival order, a job's finish time is
    ``max(now, free_at) + duration``: exactly the float a capacity-1
    :class:`Resource` grant followed by ``timeout(duration)`` produced,
    since that grant happens at the previous job's finish time.

    :meth:`reserve` schedules a job's end callback as one kernel entry.
    A job that queues behind another is scheduled when the job ahead of
    it ends, the moment the resource would have granted it, so entries
    that tie on time keep the order a granted timeout gave them.
    """

    __slots__ = ("sim", "name", "free_at", "_seq", "busy_s", "wait_s",
                 "_in_service", "_queued")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self.free_at = sim.now
        self._seq = 0          # jobs reserved
        self.busy_s = 0.0      # total service time reserved
        self.wait_s = 0.0      # total time jobs queued before service
        self._in_service = False
        # Jobs waiting behind the one in service; a list, not a deque:
        # link queues are short and there are two links per host.
        self._queued: List[tuple] = []

    def reserve(self, duration: float, fn: Callable, *args: Any) -> float:
        """Book a job of ``duration``; ``fn(*args)`` runs when it ends.

        Returns the job's absolute finish time.
        """
        self._seq += 1
        now = self.sim.now
        start = self.free_at
        if start > now:
            self.wait_s += start - now
        else:
            start = now
        self.free_at = finish = start + duration
        self.busy_s += duration
        if self._in_service:
            self._queued.append((finish, fn, args))
        else:
            self._in_service = True
            self.sim.inject(finish, self._end, fn, args)
        return finish

    def _end(self, fn: Callable, args: tuple) -> None:
        # Start the next job first, as a release would have granted it
        # before the finished job's holder went on.
        if self._queued:
            finish, next_fn, next_args = self._queued.pop(0)
            self.sim.inject(finish, self._end, next_fn, next_args)
        else:
            self._in_service = False
        fn(*args)


class Store:
    """An unbounded FIFO of items; ``get`` blocks until an item arrives."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that triggers with the next available item."""
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns ``None`` when empty."""
        if self._items:
            return self._items.popleft()
        return None
