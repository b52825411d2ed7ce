"""Discrete-event simulation kernel.

This is the substrate every other subsystem runs on: simulated hosts, NICs,
transports, RPCs, and the CliqueMap cell itself are all processes scheduled
by the :class:`Simulator` here.

The model follows the classic generator-process style (as popularized by
simpy, re-implemented from scratch): a *process* is a generator that yields
:class:`Event` objects and is resumed when the yielded event triggers.
Simulated time is a float number of seconds.

Scheduling is closure-free on the hot path: every queue entry is a
``(time, seq, fn, args)`` tuple, zero-delay actions bypass the heap through
a same-time FIFO ready-queue, and :meth:`Simulator.sleep` recycles timeout
objects through a pool for tight retry/backoff loops. The global execution
order is still exactly sort-by-``(time, seq)`` — the ready-queue is an
ordering-preserving fast path, so a given seed produces the same event
sequence as a pure-heap kernel.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

# What a process "waits on" before its first step has run; lets
# interrupt() cancel the pending start the same way it cancels any
# other pending wake-up (by changing the identity the callback checks).
_PENDING_START = object()

class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""

class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value supplied to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

class StopSimulation(Exception):
    """Internal: raised to stop :meth:`Simulator.run` at an ``until`` event."""

class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called, and is *processed* once its callbacks have run.
    Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Tuple[Callable, tuple]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        # A failed event with no callbacks re-raises inside run() unless it
        # has been explicitly defused (e.g. fire-and-forget processes).
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

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(
                f"event already triggered (now={self.sim.now!r})")
        self._triggered = True
        self._ok = True
        self._value = value
        # Inlined sim._schedule_event(self): a zero-delay ready-queue
        # append — every event trigger in the system passes through here.
        sim = self.sim
        sim._seq += 1
        sim._ready.append((sim._seq, self._process, ()))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed with exception ``exc``."""
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._triggered:
            raise SimulationError(
                f"event already triggered (now={self.sim.now!r})")
        self._triggered = True
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._seq += 1
        sim._ready.append((sim._seq, self._process, ()))
        return self

    def add_callback(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(event, *args)`` when the event is processed.

        If the event has already been processed the callback is scheduled to
        run immediately (at the current simulated time).
        """
        if self.callbacks is None:
            self.sim.call_soon(fn, self, *args)
        else:
            self.callbacks.append((fn, args))

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if not self._ok and not callbacks and not self.defused:
            raise self._value
        for fn, args in callbacks or ():
            fn(self, *args)

class Timeout(Event):
    """An event that triggers ``delay`` seconds in the future.

    Negative delays are validated exactly once, here at scheduling time
    (mirroring :meth:`Simulator._push`), instead of the pre-rewrite
    double check in both the event constructor and the scheduler.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # Inlined Event.__init__ + trigger + Simulator._push: timeouts are
        # the single most allocated event type, so skip the double field
        # initialization and the extra scheduling call frame.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.defused = False
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay!r}s in the past (now={sim.now!r})")
        sim._seq += 1
        if delay == 0:
            sim._ready.append((sim._seq, self._process, ()))
        else:
            heapq.heappush(
                sim._heap, (sim.now + delay, sim._seq, self._process, ()))

    def _process(self) -> None:
        # Timeouts always succeed, so the base class's unhandled-failure
        # bookkeeping is dead weight here.
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for fn, args in callbacks or ():
            fn(self, *args)

class _PooledTimeout(Timeout):
    """A recyclable timeout for one-shot sleeps (see :meth:`Simulator.sleep`).

    After its callbacks run, the object is returned to the simulator's pool
    and may be re-armed with a new value. It must therefore only be consumed
    by the single process that yields it, never stored, re-yielded, or handed
    to :meth:`Simulator.any_of` / :meth:`Simulator.all_of` (conditions read
    child values after later children fire, by which time a pooled timeout
    may already carry the value of an unrelated sleep).
    """

    __slots__ = ("_bound_process",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        super().__init__(sim, delay, value)
        # Bound once: re-arming from the pool schedules this handle
        # without creating a fresh bound method per sleep.
        self._bound_process = self._process

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for fn, args in callbacks or ():
            fn(self, *args)
        # Inlined Simulator._recycle: reset and return to the pool.
        sim = self.sim
        pool = sim._timeout_pool
        if len(pool) < sim._POOL_MAX:
            self.callbacks = []
            self._value = None
            self._triggered = False
            self._processed = False
            self.defused = False
            pool.append(self)

class Process(Event):
    """A running generator process; also an event that triggers on exit.

    The process succeeds with the generator's return value, or fails with
    the exception that escaped it.
    """

    __slots__ = ("_gen", "_send", "_throw", "_wait_cb", "_waiting_on",
                 "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise SimulationError("process() requires a generator")
        self._gen = gen
        # Bound once per process: every resume/wait re-uses these handles
        # instead of allocating a bound method (or closure) per step.
        self._send = gen.send
        self._throw = gen.throw
        self._wait_cb = self._on_wait_done
        self.name = name or getattr(gen, "__name__", "process")
        # Identity of the event we are parked on; cleared by interrupt()
        # so that a late-firing original event cannot double-resume us.
        # (Replaces the old per-wait serial number: an identity check
        # costs no allocation on the wait registration path.)
        self._waiting_on: Any = _PENDING_START
        sim.call_soon(self._start)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        self._waiting_on = None  # invalidate any pending wake-up
        self.sim.call_soon(self._throw_with, Interrupt(cause))

    def _start(self) -> None:
        if self._waiting_on is not _PENDING_START or self._triggered:
            return  # interrupted (or killed) before the first step
        self._step(self._send, None)

    def _on_wait_done(self, event: Event) -> None:
        if event is not self._waiting_on or self._triggered:
            return  # stale wake-up (we were interrupted meanwhile)
        # Body of _step() inlined: this is the resume path every process
        # wait in the simulation funnels through.
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                event.defused = True
                target = self._throw(event._value)
        except StopIteration as stop:
            self._finished()
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process died
            self._finished()
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target is self:
            self.fail(SimulationError("process cannot wait on itself"))
            return
        self._waiting_on = target
        cbs = target.callbacks
        if cbs is None:
            self.sim.call_soon(self._wait_cb, target)
        else:
            cbs.append((self._wait_cb, ()))

    def _finished(self) -> None:
        # Drop what only a running process needs: the last awaited event
        # (a finished process can outlive its wait, e.g. held by a pending
        # deadline timer's condition) and the bound wake-up callback,
        # whose self-reference would leave the process to the cyclic GC.
        self._waiting_on = None
        self._wait_cb = None

    def _throw_with(self, exc: BaseException) -> None:
        if self._triggered:
            return
        self._step(self._throw, exc)

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        try:
            target = advance(arg)
        except StopIteration as stop:
            self._finished()
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process died
            self._finished()
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target is self:
            self.fail(SimulationError("process cannot wait on itself"))
            return
        self._waiting_on = target
        # Inlined target.add_callback(self._wait_cb) — this is the single
        # hottest call site in the kernel.
        cbs = target.callbacks
        if cbs is None:
            self.sim.call_soon(self._wait_cb, target)
        else:
            cbs.append((self._wait_cb, ()))

class Condition(Event):
    """Base for composite events over a set of child events."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if not self._events:
            self.succeed([])
            return
        child_done = self._child_done  # bound once for the whole fan-out
        for ev in self._events:
            cbs = ev.callbacks
            if cbs is None:
                sim.call_soon(child_done, ev)
            else:
                cbs.append((child_done, ()))

    def _child_done(self, event: Event) -> None:
        raise NotImplementedError

class AllOf(Condition):
    """Triggers when every child has triggered; value is the list of values.

    Fails (with the first failure) if any child fails.
    """

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self._triggered:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev._value for ev in self._events])

class AnyOf(Condition):
    """Triggers when the first child triggers; value is ``(event, value)``.

    Fails if the first child to trigger failed. Later children are defused.
    """

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self._triggered:
            if not event._ok:
                event.defused = True
            return
        if event._ok:
            self.succeed((event, event._value))
        else:
            event.defused = True
            self.fail(event._value)

class Simulator:
    """The event loop: a time-ordered queue of ``(time, seq, fn, args)``.

    Two structures back the queue: a binary heap for future entries and a
    FIFO deque (the *ready queue*) for entries at the current time. The
    zero-delay storm of process resumes and event callbacks never touches
    the heap; the run loop interleaves the two by ``(time, seq)`` so the
    observable order is identical to a single sorted queue.
    """

    _POOL_MAX = 256

    def __init__(self):
        self.now: float = 0.0
        self._heap: list = []
        self._ready: deque = deque()
        self._seq = 0
        self._running = False
        self._timeout_pool: list = []
        # Clock taps: periodic observer callbacks fired synchronously as
        # simulated time advances. They never touch the scheduling queue
        # (no sequence numbers, no events), so a tapped run executes the
        # exact same event order as an untapped one — the property the
        # telemetry scraper's seed-for-seed parity guarantee rests on.
        # With no taps registered the run loop pays one float compare
        # per time advance.
        self._taps: list = []                  # [next_at, interval, fn]
        self._next_tap_at: float = float("inf")

    # -- scheduling ------------------------------------------------------

    def _push(self, delay: float, fn: Callable, args: tuple) -> None:
        """Single validation point for all scheduling."""
        if delay < 0:
            # An entry before ``now`` would make simulated time run
            # backwards for everyone already scheduled.
            raise SimulationError(
                f"cannot schedule {delay!r}s in the past (now={self.now!r})")
        self._seq += 1
        if delay == 0:
            self._ready.append((self._seq, fn, args))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        self._push(delay, event._process, ())

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at the current simulated time."""
        self._seq += 1
        self._ready.append((self._seq, fn, args))

    def call_in(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        self._push(delay, fn, args)

    # -- clock taps -------------------------------------------------------

    def add_tap(self, interval: float, fn: Callable[[float], Any],
                first_at: Optional[float] = None) -> list:
        """Register a periodic observer fired as simulated time advances.

        ``fn(tick_time)`` runs synchronously inside the run loop whenever
        time is about to advance past a tick (every ``interval`` seconds,
        first at ``first_at`` or ``now + interval``). ``sim.now`` reads as
        the tick time during the call. Taps are for *observation* —
        sampling metrics, evaluating alert rules — and must not schedule
        events or processes: they consume no scheduling sequence numbers,
        which is what keeps a tapped run's event order and count identical
        to an untapped run of the same seed.

        Returns a handle for :meth:`remove_tap`.
        """
        if interval <= 0:
            raise SimulationError(
                f"tap interval must be > 0, got {interval!r}")
        start = self.now + interval if first_at is None \
            else max(first_at, self.now)
        tap = [start, interval, fn]
        self._taps.append(tap)
        if start < self._next_tap_at:
            self._next_tap_at = start
        return tap

    def remove_tap(self, tap: list) -> bool:
        """Deregister a tap handle; True if it was registered."""
        try:
            self._taps.remove(tap)
        except ValueError:
            return False
        self._next_tap_at = min((t[0] for t in self._taps),
                                default=float("inf"))
        return True

    def _fire_taps(self, limit: float) -> None:
        """Fire every tap tick due at or before ``limit``, in tick order."""
        saved_now = self.now
        while True:
            due = None
            for tap in self._taps:
                if tap[0] <= limit and (due is None or tap[0] < due[0]):
                    due = tap
            if due is None:
                break
            at = due[0]
            due[0] = at + due[1]
            # Ticks read as "now" so tap callbacks that consult the clock
            # (e.g. gauges stamped with sample time) see the tick instant.
            self.now = at
            due[2](at)
        self.now = saved_now
        self._next_tap_at = min((t[0] for t in self._taps),
                                default=float("inf"))

    # -- event constructors ----------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Timeout:
        """A pooled one-shot timeout for retry/backoff loops.

        The returned event is recycled as soon as its callbacks have run:
        yield it from exactly one process and do not store it, re-yield it,
        or pass it to :meth:`any_of` / :meth:`all_of` — use :meth:`timeout`
        for anything longer-lived than a single ``yield``.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule {delay!r}s in the past "
                    f"(now={self.now!r})")
            ev = pool.pop()
            ev._triggered = True
            ev._value = value
            self._seq += 1
            if delay == 0:
                self._ready.append((self._seq, ev._bound_process, ()))
            else:
                heapq.heappush(
                    self._heap,
                    (self.now + delay, self._seq, ev._bound_process, ()))
            return ev
        return _PooledTimeout(self, delay, value)

    def trigger_at(self, event: Event, at: float, value: Any = None,
                   ok: bool = True) -> Event:
        """Trigger ``event`` at the absolute simulated time ``at``.

        The event is marked triggered now and its callbacks run when the
        entry comes due, exactly like a :class:`Timeout`'s: one queue
        entry, taking the next sequence number. Callers that compute the
        end of a hold pass ``now + duration`` (or a closed-form finish
        time), the same float a ``timeout(duration)`` would schedule.
        With ``ok=False`` the event fails with ``value`` (an exception).
        """
        if event._triggered:
            raise SimulationError(
                f"event already triggered (now={self.now!r})")
        if at < self.now:
            raise SimulationError(
                f"cannot schedule at {at!r}, in the past (now={self.now!r})")
        event._triggered = True
        event._ok = ok
        event._value = value
        self._seq += 1
        if at == self.now:
            self._ready.append((self._seq, event._process, ()))
        else:
            heapq.heappush(self._heap, (at, self._seq, event._process, ()))
        return event

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- running ----------------------------------------------------------

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        triggers; its value is returned).
        """
        if self._running:
            raise SimulationError("simulator is already running")
        stop_event: Optional[Event] = None
        deadline: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
            stop_event.add_callback(self._stop_callback)
        elif until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise SimulationError(
                    f"until={deadline!r} lies in the past (now={self.now!r})")

        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        self._running = True
        try:
            while True:
                if ready:
                    # Interleave with heap entries already due at ``now``:
                    # global order is exactly sort-by-(time, seq).
                    if heap and heap[0][0] <= self.now \
                            and heap[0][1] < ready[0][0]:
                        _at, _seq, fn, args = heappop(heap)
                    else:
                        _seq, fn, args = ready.popleft()
                elif heap:
                    at = heap[0][0]
                    if deadline is not None and at > deadline:
                        break
                    if at >= self._next_tap_at:
                        self._fire_taps(at)
                    _at, _seq, fn, args = heappop(heap)
                    self.now = at
                else:
                    break
                try:
                    fn(*args)
                except StopSimulation:
                    break
            if deadline is not None and self.now < deadline:
                if deadline >= self._next_tap_at:
                    self._fire_taps(deadline)
                self.now = deadline
        finally:
            self._running = False

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ended before the until-event triggered "
                    f"(now={self.now!r})")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation

    def peek(self) -> float:
        """Time of the next scheduled action, or ``inf`` when idle."""
        if self._ready:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")

    # -- sharded execution (see repro.sim.parallel) -----------------------

    def run_until(self, horizon: float) -> float:
        """Run every action due at or before ``horizon``; clock ends there.

        The bounded-window primitive conservative parallel simulation is
        built on: a shard coordinator advances each shard's kernel in
        lookahead-sized windows by calling ``run_until`` repeatedly.
        Actions scheduled exactly at ``horizon`` execute (the window is
        half-open on the left: ``(prev_horizon, horizon]``), and on
        return ``now == horizon`` even if the shard went idle earlier,
        so clock taps fire and every shard leaves the window at the same
        instant. Returns the new ``now``.
        """
        if horizon < self.now:
            raise SimulationError(
                f"run_until({horizon!r}) lies in the past "
                f"(now={self.now!r})")
        self.run(until=horizon)
        return self.now

    def lower_bound(self) -> float:
        """Lower-bound timestamp (LBTS) of this kernel.

        No not-yet-executed local action can run earlier than this time,
        so no locally-generated message can carry an earlier send time.
        A neighbour shard with lookahead ``L`` on the connecting link may
        therefore safely advance to ``lower_bound() + L``. Identical to
        :meth:`peek`; named separately so the synchronization protocol
        reads as what it is.
        """
        if self._ready:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")

    def inject(self, at: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at the absolute simulated time ``at``.

        The externally-sourced-event path: cross-shard deliveries enter
        the kernel here, between windows, with their original arrival
        timestamp. The entry takes the next sequence number at injection
        time, so a deterministic injection order — the coordinator sorts
        deliveries by ``(time, shard_id, seq)`` — yields a deterministic
        ``(time, seq)`` total order against local events. ``at`` must
        not lie in the shard's past; the conservative lookahead protocol
        guarantees arrivals never do, and this guard turns any protocol
        violation into a loud error instead of silent time travel.
        """
        if at < self.now:
            raise SimulationError(
                f"cannot inject at {at!r}, in the past (now={self.now!r})")
        self._seq += 1
        if at == self.now:
            self._ready.append((self._seq, fn, args))
        else:
            heapq.heappush(self._heap, (at, self._seq, fn, args))
