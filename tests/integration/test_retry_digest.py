"""Pinned single-key retry digests: the retry driver must not move ops.

Closed-loop GET/SET/ERASE clients run against a small R3_2 cell while
every client host loses a fifth of its deliveries, so all three ops
retry and the retry budget sheds. The digest covers each op's status,
attempt count and latency to the last bit, plus the simulated end
time. The values were captured before the three per-op retry loops
were folded into one driver, so any drift in attempt order, backoff
draws, budget spending or recovery shows up here.
"""

import hashlib
import random

import pytest

from repro.core import Cell, CellSpec, ReplicationMode
from repro.net import LinkFault

CLIENTS = 4
OPS = 150
KEYS = 40

PINNED = {
    ("1rma", "2xr"): ("db9395b4fdf2a90e2712d006ef3220a8",
                     0.09641770232575358),
    ("pony", "scar"): ("e9e9f42b46e3817941e2092e7ee502ff",
                      0.0780205211256969),
}


def run_retry_workload(transport, strategy, seed=11):
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=6,
                         transport=transport, seed=seed))
    clients = [cell.connect_client(strategy=strategy)
               for _ in range(CLIENTS)]
    for client in clients:
        cell.fabric.degrade_host(client.host,
                                 LinkFault(loss_probability=0.2))
    digest = hashlib.blake2b(digest_size=16)

    def loop(index, client):
        rng = random.Random(seed * 1000 + index)
        for seq in range(OPS):
            key = b"retry-%d" % rng.randrange(KEYS)
            roll = rng.random()
            if roll < 0.5:
                kind, result = "get", (yield from client.get(key))
            elif roll < 0.85:
                kind, result = "set", (yield from client.set(
                    key, b"v%d-%d" % (index, seq)))
            else:
                kind, result = "erase", (yield from client.erase(key))
            digest.update(repr((index, seq, kind, result.status.name,
                                result.attempts,
                                result.latency.hex())).encode())

    procs = [cell.sim.process(loop(i, c)) for i, c in enumerate(clients)]
    cell.sim.run(until=cell.sim.all_of(procs))
    return cell, digest.hexdigest(), cell.sim.now


@pytest.mark.parametrize("transport,strategy", sorted(PINNED))
def test_retry_digest_is_pinned(transport, strategy):
    cell, digest, sim_now = run_retry_workload(transport, strategy)
    metrics = cell.metrics
    for op in ("get", "set", "erase"):
        assert metrics.total("cliquemap_retries_total", op=op) > 0, op
    assert metrics.total("cliquemap_retries_shed_total") > 0
    assert (digest, sim_now) == PINNED[(transport, strategy)]
