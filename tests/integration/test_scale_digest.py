"""Pinned scale-workload digests: simulator speed-ups must not move ops.

The values were captured with the grant-then-timeout resource model
(every NIC link, Pony engine and CPU hold a ``Resource`` request plus a
timeout). Callback-driven holds must reproduce every op outcome, its
latency to the last bit, and the simulated duration exactly. Only the
kernel event count may change.
"""

import pytest

from repro.analysis import run_scale_workload

PINNED = {
    "pony": ("7b4e8d20378ce3b2f4141db2a7bfd9ea", 0.00032704638095663874),
    "1rma": ("30c08812a7ae6fd7223f49fce3a31d95", 0.00028106782146558595),
}


@pytest.mark.parametrize("transport", sorted(PINNED))
def test_scale_digest_is_pinned(transport):
    result = run_scale_workload(transport=transport, num_hosts=12, ops=400,
                                batch=4, seed=3)
    digest, sim_seconds = PINNED[transport]
    assert result["errors"] == 0
    assert (result["digest"], result["sim_seconds"]) == (digest,
                                                         sim_seconds)
