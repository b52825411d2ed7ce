"""Client-level behaviors: MSG strategy, retry layers, stat attribution."""


from repro.core import (BackendConfig, Cell, CellSpec, ClientConfig,
                        GetStatus, LookupStrategy, ReplicationMode, SetStatus)
from repro.net import LinkFault


def run(cell, gen):
    return cell.sim.run(until=cell.sim.process(gen))


def test_msg_strategy_roundtrip():
    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=2,
                         transport="pony"))
    client = cell.connect_client(strategy=LookupStrategy.MSG)

    def app():
        yield from client.set(b"k", b"v" * 32)
        hit = yield from client.get(b"k")
        miss = yield from client.get(b"absent")
        return hit, miss

    hit, miss = run(cell, app())
    assert hit.status is GetStatus.HIT and hit.value == b"v" * 32
    assert miss.status is GetStatus.MISS


def test_msg_wakes_server_threads_scar_does_not():
    costs = {}
    for strategy in (LookupStrategy.MSG, LookupStrategy.SCAR):
        cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=2,
                             transport="pony"))
        client = cell.connect_client(strategy=strategy)

        def app():
            yield from client.set(b"k", b"v")
            for _ in range(20):
                yield from client.get(b"k")

        run(cell, app())
        costs[strategy] = sum(b.host.ledger.seconds("msg-app")
                              for b in cell.serving_backends())
    assert costs[LookupStrategy.MSG] > 0
    assert costs[LookupStrategy.SCAR] == 0


def test_msg_fails_over_to_second_replica():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    client = cell.connect_client(strategy=LookupStrategy.MSG)

    def app():
        yield from client.set(b"k", b"v")
        # Kill the key's first replica; MSG should try the next one.
        shard = client.placement.shards_for(
            client.placement.key_hash(b"k"))[0]
        cell.backend_by_task(cell.task_for_shard(shard)).crash()
        result = yield from client.get(b"k")
        return result

    result = run(cell, app())
    assert result.status is GetStatus.HIT


def test_torn_reads_and_version_races_counted_separately():
    cell = Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=3, transport="pony",
        backend_config=BackendConfig(min_write_step=150e-6)))
    writer = cell.connect_client(strategy=LookupStrategy.TWO_R)
    reader = cell.connect_client(strategy=LookupStrategy.TWO_R)

    def setup():
        yield from writer.set(b"k", b"A" * 400)

    run(cell, setup())

    def write_loop():
        for i in range(20):
            yield from writer.set(b"k", bytes([65 + i % 26]) * 400)

    def read_loop():
        end = cell.sim.now + 3e-3
        while cell.sim.now < end:
            yield from reader.get(b"k")
            yield cell.sim.timeout(4e-6)

    cell.sim.process(write_loop())
    run(cell, read_loop())
    assert reader.stats["torn_reads"] > 0
    assert reader.stats["get_errors"] == 0


def test_stale_view_retry_counts_view_refreshes():
    cell = Cell(CellSpec(
        mode=ReplicationMode.R1, num_shards=1, transport="pony",
        backend_config=BackendConfig(num_buckets=2, ways=2,
                                     index_resize_load_factor=0.5)))
    client = cell.connect_client(strategy=LookupStrategy.TWO_R)
    refreshes_at_connect = client.stats["view_refreshes"]

    def app():
        for i in range(10):
            yield from client.set(b"k-%d" % i, b"v")
        yield cell.sim.timeout(0.5)  # let resizes land
        for i in range(10):
            result = yield from client.get(b"k-%d" % i)
            assert result.status is GetStatus.HIT

    run(cell, app())
    assert client.stats["view_refreshes"] > refreshes_at_connect


def test_deadline_bounds_get_wall_time():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    client = cell.connect_client(
        strategy=LookupStrategy.TWO_R,
        client_config=ClientConfig(max_retries=1000, retry_backoff=50e-6))

    def app():
        # Kill two backends: every GET is inquorate and retries forever —
        # only the deadline stops it.
        for task in ("backend-0", "backend-1"):
            cell.backend_by_task(task).crash()
        start = cell.sim.now
        result = yield from client.get(b"k", deadline=2e-3)
        return result, cell.sim.now - start

    result, elapsed = run(cell, app())
    assert result.status in (GetStatus.ERROR, GetStatus.MISS)
    assert elapsed < 4e-3  # bounded by (deadline + the final attempt)


def test_get_multi_partial_hits():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    client = cell.connect_client()

    def app():
        yield from client.set(b"present", b"v")
        results = yield from client.get_multi([b"present", b"absent"])
        return results

    results = run(cell, app())
    assert results[0].hit
    assert results[1].status is GetStatus.MISS


def test_cas_reports_stored_version_on_failure():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    client = cell.connect_client()

    def app():
        yield from client.set(b"k", b"v1")
        current = yield from client.get(b"k")
        yield from client.set(b"k", b"v2")
        failed = yield from client.cas(b"k", b"v3", current.version)
        fresh = yield from client.get(b"k")
        ok = yield from client.cas(b"k", b"v3", fresh.version)
        return failed, ok

    failed, ok = run(cell, app())
    assert failed.status is SetStatus.FAILED
    assert failed.stored_version is not None
    assert ok.status is SetStatus.APPLIED


def test_erase_superseded_by_concurrent_newer_set():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    a = cell.connect_client()
    b = cell.connect_client()

    def app():
        yield from a.set(b"k", b"v")
        # b erases, then a sets again with a newer version: key lives.
        yield from b.erase(b"k")
        yield from a.set(b"k", b"reborn")
        result = yield from a.get(b"k")
        return result

    result = run(cell, app())
    assert result.hit and result.value == b"reborn"


def test_overflow_rpc_lookup_can_be_disabled():
    backend_config = BackendConfig(num_buckets=1, ways=1,
                                   overflow_rpc_fallback=True,
                                   index_resize_load_factor=2.0)
    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=1,
                         transport="pony", backend_config=backend_config))
    on = cell.connect_client(
        strategy=LookupStrategy.TWO_R,
        client_config=ClientConfig(overflow_rpc_lookup=True))
    off = cell.connect_client(
        strategy=LookupStrategy.TWO_R,
        client_config=ClientConfig(overflow_rpc_lookup=False))

    def app():
        # Two keys into a single 1-way bucket: the second spills.
        yield from on.set(b"a", b"1")
        yield from on.set(b"b", b"2")
        backend = cell.backend_by_task("backend-0")
        spilled = [k for k in (b"a", b"b")
                   if backend.placement.key_hash(k) in backend.overflow]
        assert len(spilled) == 1
        with_fallback = yield from on.get(spilled[0])
        without = yield from off.get(spilled[0])
        return with_fallback, without

    with_fallback, without = run(cell, app())
    assert with_fallback.status is GetStatus.HIT
    assert without.status is GetStatus.MISS
    assert on.stats["overflow_lookups"] >= 1


def test_concurrent_cas_same_expected_at_most_one_wins():
    """End-to-end lost-update freedom: of N CAS racing on one observed
    version, at most one reports APPLIED (I5 in the formal model)."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    clients = [cell.connect_client() for _ in range(3)]

    def setup():
        yield from clients[0].set(b"k", b"base")
        result = yield from clients[0].get(b"k")
        return result.version

    version = run(cell, setup())
    outcomes = []

    def racer(client, tag):
        result = yield from client.cas(b"k", b"winner-%d" % tag, version)
        outcomes.append((tag, result.status))

    procs = [cell.sim.process(racer(c, i)) for i, c in enumerate(clients)]
    cell.sim.run(until=cell.sim.all_of(procs))
    applied = [tag for tag, status in outcomes
               if status is SetStatus.APPLIED]
    assert len(applied) <= 1
    if applied:
        def verify():
            result = yield from clients[0].get(b"k")
            return result.value
        assert run(cell, verify()) == b"winner-%d" % applied[0]


def test_cas_returns_by_its_deadline():
    """A CAS whose replicas cannot answer in time fails at its deadline
    instead of waiting out the full per-replica mutation RPC deadline."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    client = cell.connect_client()

    def app():
        stored = yield from client.set(b"k", b"v0")
        # Every delivery to or from the client crawls: no replica reply
        # can land within the 1 ms op deadline.
        cell.fabric.degrade_host(client.host,
                                 LinkFault(latency_multiplier=1000.0))
        return (yield from client.cas(b"k", b"v1", stored.version,
                                      deadline=1e-3))

    result = run(cell, app())
    assert result.status is SetStatus.FAILED
    assert result.error == "inquorate"
    assert result.latency <= 1e-3
