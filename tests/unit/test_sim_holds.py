"""Callback-driven resource holds: FifoServer, Resource.claim, Hold users.

A hold is one event that fires when the hold ends. Its bookkeeping (CPU
charge, slot release) runs before the waiter wakes, and its end time is
the float the grant-then-timeout generator version produced.
"""

import pytest

from repro.net import Host, HostConfig, HostDownError
from repro.net.fabric import Fabric, FabricConfig
from repro.sim import FifoServer, Resource, Simulator
from repro.transport import PonyTransport
from repro.transport.pony import PonyEngineGroup, PonyScaleConfig


# -- FifoServer --------------------------------------------------------------

def _noop():
    pass


def test_fifo_back_to_back_reservations_queue():
    sim = Simulator()
    server = FifoServer(sim)
    assert server.reserve(2.0, _noop) == 2.0
    assert server.reserve(3.0, _noop) == 5.0
    assert server.reserve(1.0, _noop) == 6.0
    assert server.busy_s == 6.0
    assert server.wait_s == 2.0 + 5.0   # second waited 2, third waited 5
    assert server._seq == 3


def test_fifo_idle_gap_starts_at_now():
    sim = Simulator()
    server = FifoServer(sim)
    server.reserve(1.0, _noop)
    sim.run(until=4.0)
    assert server.reserve(1.0, _noop) == 5.0
    assert server.wait_s == 0.0
    assert server.busy_s == 2.0


def test_fifo_finish_is_the_float_a_timeout_would_produce():
    sim = Simulator()
    server = FifoServer(sim)
    durations = [0.1, 0.2, 0.7e-7, 1e-3 / 3]
    sim.run(until=0.3)
    finishes = [server.reserve(d, _noop) for d in durations]
    # The resource model: each grant at the previous end, then
    # timeout(duration) from that instant.
    expected, now = [], sim.now
    for d in durations:
        now = now + d
        expected.append(now)
    assert finishes == expected


def test_fifo_fires_callbacks_at_finish_in_order():
    sim = Simulator()
    server = FifoServer(sim)
    fired = []
    for tag, d in (("a", 2.0), ("b", 1.0), ("c", 0.5)):
        server.reserve(d, lambda tag=tag: fired.append((tag, sim.now)))
    sim.run()
    assert fired == [("a", 2.0), ("b", 3.0), ("c", 3.5)]


def test_fifo_queued_job_is_scheduled_when_the_job_ahead_ends():
    """Ties keep the resource order: a queued job's end entry is taken
    when the job ahead of it ends, like a grant, not when it queued."""
    sim = Simulator()
    x, y = FifoServer(sim), FifoServer(sim)
    fired = []
    # x: two jobs, the second queued; y: one job started later whose
    # end ties with x's second job at t=3.
    x.reserve(1.0, fired.append, "x1")
    x.reserve(2.0, fired.append, "x2")
    sim.run(until=0.5)
    y.reserve(2.5, fired.append, "y1")
    sim.run()
    # x2 was granted at t=1, after y1 queued at t=0.5: y1 goes first.
    assert fired == ["x1", "y1", "x2"]


# -- Resource.claim ------------------------------------------------------------

def test_claim_takes_an_idle_slot_without_scheduling():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    seq = sim._seq
    req = res.claim()
    assert req is not None and res.count == 1
    assert sim._seq == seq          # no grant event
    assert res.claim() is None      # full
    res.release(req)
    assert res.count == 0


def test_claim_refuses_while_others_queue():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    queued = res.request()
    res.set_capacity(2)              # grants the queued request
    assert queued.triggered
    waiting = res.request()          # full again: queues
    assert res.claim() is None
    res.release(waiting)
    res.release(held)
    assert res.claim() is not None


# -- Pony engine passes ----------------------------------------------------------

def _engine_group(engines=1):
    sim = Simulator()
    host = Host(sim, "h", HostConfig(cores=4))
    scale = PonyScaleConfig(base_engines=engines, max_engines=4,
                            sample_interval=1.0)
    return sim, host, PonyEngineGroup(sim, host, scale)


def test_contended_engine_passes_queue_fifo():
    sim, host, group = _engine_group()
    ends = []

    def proc(tag):
        yield group.serve(10e-6)
        ends.append((tag, sim.now))

    for tag in "abc":
        sim.process(proc(tag))
    sim.run(until=100e-6)
    # Each grant at the previous end, then the service time from there.
    assert ends == [("a", 10e-6), ("b", 10e-6 + 10e-6),
                    ("c", 10e-6 + 10e-6 + 10e-6)]
    assert host.ledger.seconds("pony") == pytest.approx(30e-6)
    assert group.engines.count == 0


def test_engine_growth_grants_queued_waiters_at_the_tick():
    sim, _host, group = _engine_group()
    ends = {}

    def proc(tag):
        yield group.serve(10e-6)
        ends[tag] = sim.now

    def grow():
        yield sim.timeout(4e-6)
        group.engines.set_capacity(2)

    for tag in "abc":
        sim.process(proc(tag))
    sim.process(grow())
    sim.run(until=100e-6)
    assert ends["a"] == 10e-6
    assert ends["b"] == 4e-6 + 10e-6    # granted by the capacity change
    assert ends["c"] == 10e-6 + 10e-6   # granted when "a" released


def test_engine_pass_bookkeeping_precedes_the_wakeup():
    sim, host, group = _engine_group()
    seen = []

    def proc():
        yield group.serve(5e-6)
        seen.append((host.ledger.seconds("pony"), group.engines.count))

    sim.process(proc())
    sim.run(until=50e-6)
    assert seen == [(5e-6, 0)]


def test_pony_transport_serve_is_one_event():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(delay_jitter=0.0))
    host = fabric.add_host("h")
    transport = PonyTransport(sim, fabric)
    group = transport.engine_group(host)
    before = sim._seq
    group.serve(1e-6)
    # One entry for the monitor's first start, one for the hold's end.
    assert sim._seq - before == 2


# -- Host.execute ------------------------------------------------------------------

def test_execute_grants_cores_by_priority_then_fifo():
    sim = Simulator()
    host = Host(sim, "h", HostConfig(cores=1))
    order = []

    def holder():
        yield host.execute(10e-6, "holder")

    def waiter(tag, priority):
        yield sim.timeout(1e-6)
        yield host.execute(1e-6, tag, priority=priority)
        order.append(tag)

    sim.process(holder())
    for tag, priority in (("low1", 5), ("high", 0), ("low2", 5)):
        sim.process(waiter(tag, priority))
    sim.run()
    assert order == ["high", "low1", "low2"]


def test_crash_while_queued_raises_at_grant_and_frees_the_core():
    sim = Simulator()
    host = Host(sim, "h", HostConfig(cores=1))
    outcome = []

    def holder():
        yield host.execute(10e-6, "holder")
        outcome.append(("holder", sim.now))

    def waiter():
        try:
            yield host.execute(1e-6, "waiter")
        except HostDownError as exc:
            outcome.append(("down", exc.host_name, sim.now,
                            host.cores.count))

    def crash():
        yield sim.timeout(5e-6)
        host.crash()

    sim.process(holder())
    sim.process(waiter())
    sim.process(crash())
    sim.run()
    assert outcome == [("holder", 10e-6), ("down", "h", 10e-6, 0)]
    assert host.ledger.seconds("waiter") == 0.0
    assert host.ledger.seconds("holder") == pytest.approx(10e-6)


def test_execute_bookkeeping_precedes_the_wakeup():
    sim = Simulator()
    host = Host(sim, "h", HostConfig(cores=1))
    seen = []

    def proc():
        yield host.execute(3e-6, "w")
        seen.append((host.ledger.seconds("w"), host.cores.count))

    sim.process(proc())
    sim.run()
    assert seen == [(3e-6, 0)]
