"""The pre-optimization simulation kernel, kept verbatim as a baseline.

This is the `repro.sim.core` scheduler as it stood before the fast-path
rewrite: one closure allocated per scheduled action, every zero-delay
action pays a heap push/pop, and no timeout pooling. ``bench_kernel.py``
measures the live kernel against it, and ``bench_scale.py`` replays the
same seeded cell workload on both to prove the ready-queue preserves
event order exactly (same seed, same op outcomes).

Exception types and the event-base check are shared with the live kernel
so real cell code (resources, RPC, clients) runs unmodified on either
simulator. Do not "improve" this module — its slowness is the datapoint.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.sim.core import Event as _CoreEvent
from repro.sim.core import Interrupt, SimulationError, StopSimulation


class LegacyEvent:
    """Pre-change event: callbacks are bare ``fn(event)`` callables."""

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "defused")

    def __init__(self, sim: "LegacySimulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self.defused = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "LegacyEvent":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exc: BaseException) -> "LegacyEvent":
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.sim._schedule_event(self)
        return self

    def add_callback(self, fn: Callable, *args: Any) -> None:
        if args:  # new-core call sites pass bound args
            bound, bound_args = fn, args
            fn = lambda ev: bound(ev, *bound_args)  # noqa: E731
        if self.callbacks is None:
            self.sim.call_soon(fn, self)
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if not self._ok and not callbacks and not self.defused:
            raise self._value
        for fn in callbacks or ():
            fn(self)


class LegacyTimeout(LegacyEvent):
    __slots__ = ()

    def __init__(self, sim: "LegacySimulator", delay: float,
                 value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._triggered = True
        self._ok = True
        self._value = value
        sim._schedule_event(self, delay)


class LegacyProcess(LegacyEvent):
    __slots__ = ("_gen", "_wait_serial", "name")

    def __init__(self, sim: "LegacySimulator", gen: Generator,
                 name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise SimulationError("process() requires a generator")
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._wait_serial = 0
        sim.call_soon(self._resume_with, None, self._wait_serial)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        if self._triggered:
            return
        self._wait_serial += 1
        self.sim.call_soon(self._throw_with, Interrupt(cause),
                           self._wait_serial)

    def _on_wait_done(self, serial: int, event) -> None:
        if serial != self._wait_serial or self._triggered:
            return
        if event.ok:
            self._resume_with(event.value, serial)
        else:
            event.defused = True
            self._throw_with(event.value, serial)

    def _resume_with(self, value: Any, serial: int) -> None:
        if serial != self._wait_serial or self._triggered:
            return
        self._step(lambda: self._gen.send(value))

    def _throw_with(self, exc: BaseException, serial: int) -> None:
        if self._triggered:
            return
        self._step(lambda: self._gen.throw(exc))

    def _step(self, advance: Callable[[], Any]) -> None:
        try:
            target = advance()
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process died
            self.fail(exc)
            return
        if not isinstance(target, (LegacyEvent, _CoreEvent)):
            self.fail(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target is self:
            self.fail(SimulationError("process cannot wait on itself"))
            return
        self._wait_serial += 1
        serial = self._wait_serial
        target.add_callback(lambda ev: self._on_wait_done(serial, ev))


class LegacyCondition(LegacyEvent):
    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "LegacySimulator", events: Iterable):
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if not self._events:
            self.succeed([])
            return
        for ev in self._events:
            ev.add_callback(self._child_done)

    def _child_done(self, event) -> None:
        raise NotImplementedError


class LegacyAllOf(LegacyCondition):
    __slots__ = ()

    def _child_done(self, event) -> None:
        if self._triggered:
            if not event.ok:
                event.defused = True
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev.value for ev in self._events])


class LegacyAnyOf(LegacyCondition):
    __slots__ = ()

    def _child_done(self, event) -> None:
        if self._triggered:
            if not event.ok:
                event.defused = True
            return
        if event.ok:
            self.succeed((event, event.value))
        else:
            event.defused = True
            self.fail(event.value)


class LegacySimulator:
    """The event loop as a pure (time, seq, closure) priority queue."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: list = []
        self._seq = 0
        self._running = False
        # Compat shim, not a perf feature: the live kernel's Event.succeed/
        # fail append ``(seq, fn, args)`` directly to ``sim._ready``, and
        # the scale-replay runs live-kernel events (resources, RPC) on this
        # simulator. The run loop drains it in exact (time, seq) merged
        # order, so event ordering is identical to a pure heap. Legacy
        # primitives never touch it — they keep paying the heap + closure
        # cost that makes this kernel the baseline.
        self._ready: deque = deque()

    # -- scheduling ------------------------------------------------------

    def _push(self, delay: float, action: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, action))

    def _schedule_event(self, event, delay: float = 0.0) -> None:
        self._push(delay, event._process)

    def call_soon(self, fn: Callable, *args: Any) -> None:
        self._push(0.0, lambda: fn(*args))

    def call_in(self, delay: float, fn: Callable, *args: Any) -> None:
        self._push(delay, lambda: fn(*args))

    def inject(self, at: float, fn: Callable, *args: Any) -> None:
        if at < self.now:
            raise SimulationError(f"cannot inject at {at!r}, in the past")
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, lambda: fn(*args)))

    def trigger_at(self, event, at: float, value: Any = None,
                   ok: bool = True):
        # Absolute-time scheduling for the live resource/net holds: the
        # same entry the live kernel makes, always through the heap.
        if event._triggered:
            raise SimulationError("event already triggered")
        if at < self.now:
            raise SimulationError(f"cannot schedule at {at!r}, in the past")
        event._triggered = True
        event._ok = ok
        event._value = value
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, event._process))
        return event

    # -- event constructors ----------------------------------------------

    def event(self) -> LegacyEvent:
        return LegacyEvent(self)

    def timeout(self, delay: float, value: Any = None) -> LegacyTimeout:
        return LegacyTimeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> LegacyTimeout:
        # Pre-change kernels had no pool: every sleep is a fresh timeout.
        return LegacyTimeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> LegacyProcess:
        return LegacyProcess(self, gen, name)

    def all_of(self, events: Iterable) -> LegacyAllOf:
        return LegacyAllOf(self, events)

    def any_of(self, events: Iterable) -> LegacyAnyOf:
        return LegacyAnyOf(self, events)

    # -- running ----------------------------------------------------------

    def run(self, until: Any = None) -> Any:
        if self._running:
            raise SimulationError("simulator is already running")
        stop_event = None
        deadline: Optional[float] = None
        if isinstance(until, (LegacyEvent, _CoreEvent)):
            stop_event = until
            stop_event.add_callback(self._stop_callback)
        elif until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise SimulationError("until lies in the past")

        self._running = True
        heap = self._heap
        ready = self._ready
        try:
            while True:
                if ready:
                    if heap and heap[0][0] <= self.now \
                            and heap[0][1] < ready[0][0]:
                        _at, _seq, action = heapq.heappop(heap)
                    else:
                        _seq, fn, args = ready.popleft()
                        action = None
                elif heap:
                    at = heap[0][0]
                    if deadline is not None and at > deadline:
                        break
                    _at, _seq, action = heapq.heappop(heap)
                    self.now = at
                else:
                    break
                try:
                    if action is not None:
                        action()
                    else:
                        fn(*args)
                except StopSimulation:
                    break
            if deadline is not None and self.now < deadline:
                self.now = deadline
        finally:
            self._running = False

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ended before the until-event triggered")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        return None

    @staticmethod
    def _stop_callback(event) -> None:
        raise StopSimulation

    def peek(self) -> float:
        if self._ready:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")
