"""Op outcomes must not depend on Python's string-hash randomization.

A cell episode's op digest (every outcome, its latency to the last
bit, and the final clock) is computed in fresh interpreters under
different ``PYTHONHASHSEED`` values. Iterating a ``set`` of task names
anywhere on the simulated path reorders float sums of the clock and
shows up here as a digest mismatch.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

EPISODE = r"""
import hashlib
from repro import Cell, CellSpec, ReplicationMode
from repro.sim import RandomStream, ZipfSampler

cell = Cell(CellSpec(transport="pony", num_shards=32,
                     mode=ReplicationMode.R3_2, seed=7))
sim = cell.sim
clients = [cell.connect_client() for _ in range(2)]
keys = [b"hk-%04d" % i for i in range(96)]
sizes = RandomStream(7, "sizes")
values = {key: bytes(sizes.randint(64, 256)) for key in keys}
digest = hashlib.blake2b(digest_size=16)

def preload(wid, client):
    for key in keys[wid::len(clients)]:
        result = yield from client.set(key, values[key])
        digest.update(repr(("set", wid, result.ok, result.latency)).encode())

def worker(wid, client):
    sampler = ZipfSampler(RandomStream(7, "w%d" % wid), len(keys))
    for _ in range(10):
        wanted = [keys[i] for i in sampler.sample_n(4)]
        for result in (yield from client.get_multi(wanted)):
            digest.update(repr((wid, result.status.name, result.attempts,
                                result.latency)).encode())

sim.run(until=sim.all_of([sim.process(preload(i, c))
                          for i, c in enumerate(clients)]))
sim.run(until=sim.all_of([sim.process(worker(i, c))
                          for i, c in enumerate(clients)]))
print(digest.hexdigest(), repr(sim.now), sim._seq)
"""


def _run(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", EPISODE], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return out.stdout.strip()


def test_op_digest_is_independent_of_hash_seed():
    digests = {seed: _run(seed) for seed in ("0", "1", "2")}
    assert len(set(digests.values())) == 1, digests
