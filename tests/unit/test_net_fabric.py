"""Unit tests for NIC links, MTU framing, and the fabric delivery model."""

import pytest

from repro.net import (Fabric, FabricConfig, Link, LinkFault, MtuConfig,
                       NetworkDropError, gbps)
from repro.sim import Simulator
from repro.telemetry.trace import Span


def make_fabric(rate=gbps(50.0), delay=4e-6, jitter=0.0):
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(
        host_rate_bytes_per_sec=rate,
        one_way_delay=delay,
        delay_jitter=jitter,
    ))
    return sim, fabric


def test_gbps_conversion():
    assert gbps(8.0) == pytest.approx(1e9)


def test_mtu_wire_bytes_single_frame():
    mtu = MtuConfig(mtu_bytes=5000, header_bytes=66)
    assert mtu.wire_bytes(100) == 166
    assert mtu.frames(100) == 1


def test_mtu_wire_bytes_multi_frame():
    mtu = MtuConfig(mtu_bytes=5000, header_bytes=66)
    assert mtu.frames(12000) == 3
    assert mtu.wire_bytes(12000) == 12000 + 3 * 66


def test_link_serialization_delay():
    sim = Simulator()
    link = Link(sim, rate_bytes_per_sec=1e6)
    done = []

    def proc():
        yield link.transmit(1000)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [pytest.approx(1e-3)]
    assert link.bytes_carried == 1000


def test_link_queues_concurrent_transfers():
    sim = Simulator()
    link = Link(sim, rate_bytes_per_sec=1e6)
    ends = []

    def proc():
        yield link.transmit(1000)
        ends.append(sim.now)

    sim.process(proc())
    sim.process(proc())
    sim.run()
    assert ends == [pytest.approx(1e-3), pytest.approx(2e-3)]


def test_link_rejects_zero_rate():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, rate_bytes_per_sec=0)


def test_deliver_end_to_end_latency():
    sim, fabric = make_fabric(rate=1e9, delay=5e-6)
    a = fabric.add_host("a")
    b = fabric.add_host("b")
    done = []

    def proc():
        yield fabric.deliver(a, b, 1000)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    wire = fabric.config.mtu.wire_bytes(1000)
    expected = wire / 1e9 + 5e-6 + wire / 1e9
    assert done == [pytest.approx(expected)]


def test_deliver_counts_nic_bytes():
    sim, fabric = make_fabric()
    a = fabric.add_host("a")
    b = fabric.add_host("b")

    def proc():
        yield fabric.deliver(a, b, 1000)

    sim.process(proc())
    sim.run()
    wire = fabric.config.mtu.wire_bytes(1000)
    assert a.nic.bytes_sent == wire
    assert b.nic.bytes_received == wire
    assert a.nic.bytes_received == 0


def test_loopback_delivery_is_fast():
    sim, fabric = make_fabric()
    a = fabric.add_host("a")
    done = []

    def proc():
        yield fabric.deliver(a, a, 10 ** 6)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done[0] < 1e-6
    assert a.nic.bytes_sent == 0


def test_duplicate_host_name_rejected():
    _sim, fabric = make_fabric()
    fabric.add_host("a")
    with pytest.raises(ValueError):
        fabric.add_host("a")


def test_incast_delays_concurrent_senders():
    """Many senders converging on one receiver serialize at its ingress."""
    sim, fabric = make_fabric(rate=1e8, delay=1e-6)
    receiver = fabric.add_host("rx")
    senders = [fabric.add_host(f"tx{i}") for i in range(4)]
    ends = []

    def proc(src):
        yield fabric.deliver(src, receiver, 100_000)
        ends.append(sim.now)

    for src in senders:
        sim.process(proc(src))
    sim.run()
    wire = fabric.config.mtu.wire_bytes(100_000)
    one = wire / 1e8
    # First finishes after ~2 serializations; last queues behind 3 others
    # at the receiver ingress.
    assert min(ends) == pytest.approx(2 * one + 1e-6, rel=0.01)
    assert max(ends) >= 0.99 * (one + 4 * one)


def test_antagonist_consumes_bandwidth():
    sim, fabric = make_fabric(rate=1e8, delay=1e-6)
    victim = fabric.add_host("victim")
    other = fabric.add_host("other")
    fabric.start_antagonist(victim, offered_bytes_per_sec=0.95e8,
                            direction="ingress")
    latencies = []

    def probe():
        # Let the antagonist build up queue first.
        yield sim.timeout(5e-3)
        for _ in range(20):
            start = sim.now
            yield fabric.deliver(other, victim, 4096)
            latencies.append(sim.now - start)
            yield sim.timeout(1e-4)

    sim.process(probe())
    sim.run(until=0.1)
    wire = fabric.config.mtu.wire_bytes(4096)
    unloaded = 2 * wire / 1e8 + 1e-6
    # Queueing behind antagonist chunks must visibly exceed unloaded latency.
    assert sorted(latencies)[len(latencies) // 2] > 2 * unloaded


def test_antagonist_direction_validated():
    _sim, fabric = make_fabric()
    victim = fabric.add_host("v")
    with pytest.raises(ValueError):
        fabric.start_antagonist(victim, 1e6, direction="sideways")


def test_traced_deliver_legs_close_inside_the_delivery_span():
    sim, fabric = make_fabric(rate=1e9, delay=5e-6)
    a = fabric.add_host("a")
    b = fabric.add_host("b")
    root = Span("op", lambda: sim.now)
    corrupted = []

    def proc():
        # An untraced transfer ahead of ours: our egress leg queues.
        fabric.deliver(a, b, 1000)
        corrupted.append((yield fabric.deliver(a, b, 1000, trace=root)))
        root.finish()

    sim.process(proc())
    sim.run()
    wire = fabric.config.mtu.wire_bytes(1000)
    one = wire / 1e9
    (deliver,) = root.children
    assert deliver.name == "fabric.deliver"
    assert [c.name for c in deliver.children] == ["egress", "propagate",
                                                  "ingress"]
    egress, propagate, ingress = deliver.children
    # The same floats the generator legs produced: each leg ends where
    # the next begins, and the delivery closes with its last leg.
    assert (egress.start, egress.end) == (0.0, one + one)
    assert (propagate.start, propagate.end) == (egress.end,
                                                egress.end + 5e-6)
    assert ingress.start == propagate.end
    # Both transfers arrive one serialization apart: no ingress queueing.
    assert ingress.end == pytest.approx(ingress.start + one)
    assert (deliver.start, deliver.end) == (0.0, ingress.end)
    assert corrupted == [False]
    assert a.nic.bytes_sent == 2 * wire
    assert b.nic.bytes_received == 2 * wire


def test_lossy_delivery_fails_after_detect_delay_and_closes_span():
    sim, fabric = make_fabric()
    a = fabric.add_host("a")
    b = fabric.add_host("b")
    fabric.degrade(a, b, LinkFault(loss_probability=1.0))
    root = Span("op", lambda: sim.now)
    caught = []

    def proc():
        try:
            yield fabric.deliver(a, b, 100, trace=root)
        except NetworkDropError as exc:
            caught.append((exc.reason, sim.now))

    sim.process(proc())
    sim.run()
    detect = fabric.config.partition_detect_delay
    assert caught == [("loss", detect)]
    (deliver,) = root.children
    assert deliver.end == detect
    assert deliver.labels["dropped"] is True
    assert a.nic.bytes_sent == 0


def test_corrupting_delivery_reports_corruption():
    sim, fabric = make_fabric()
    a = fabric.add_host("a")
    b = fabric.add_host("b")
    fabric.degrade(a, b, LinkFault(corrupt_probability=1.0,
                                   latency_multiplier=2.0))
    out = []

    def proc():
        out.append((yield fabric.deliver(a, b, 100)))
        out.append(sim.now)

    sim.process(proc())
    sim.run()
    config = fabric.config
    one = config.mtu.wire_bytes(100) / config.host_rate_bytes_per_sec
    assert out[0] is True
    assert out[1] == pytest.approx(2 * one + 2 * 4e-6)


def test_traced_loopback_closes_span_at_arrival():
    sim, fabric = make_fabric()
    a = fabric.add_host("a")
    root = Span("op", lambda: sim.now)

    def proc():
        return (yield fabric.deliver(a, a, 100, trace=root))

    assert sim.run(until=sim.process(proc())) is False
    (deliver,) = root.children
    assert deliver.end == 1e-7
    assert deliver.children == []
