"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cell-read-batched --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` repeats the workload's fixed episode (set-up, then the
measured phase) until ``--seconds`` of wall time have passed, at least
twice, and reports the end-to-end metrics: host numbers as medians over
the rounds, simulated numbers from the episode (every round must
reproduce it exactly). ``--trace 1`` runs the episode three times -
plain, under cProfile, and with a resource-wait probe - checks that all
three agree bit for bit, and reports the per-layer metrics.

Metric names, units and directions come from ``BENCHMARK.json`` at the
repository root. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the full self-describing record. The exit code is 1 when
any correctness check fails.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"perfbench: no program sources at {SRC}")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
from workloads import WORKLOADS, Episode  # noqa: E402

from repro.sim.resources import Resource  # noqa: E402
from repro.telemetry.trace import Span  # noqa: E402

#: The smallest sample count whose p99 has at least ten samples beyond it.
MIN_P99_SAMPLES = 1000


class Phase:
    """Wall-clock boundaries of one episode's set-up and measured phase."""

    def __init__(self):
        self.started = time.perf_counter()
        self.begun = self.ended = None
        self.cpu_begun = self.cpu_ended = None

    def begin(self) -> None:
        self.begun = time.perf_counter()
        self.cpu_begun = time.process_time()

    def end(self) -> None:
        self.cpu_ended = time.process_time()
        self.ended = time.perf_counter()

    @property
    def setup_s(self) -> float:
        return self.begun - self.started

    @property
    def measured_s(self) -> float:
        return self.ended - self.begun

    def summary(self) -> Dict[str, float]:
        return {"setup_s": self.setup_s, "measured_s": self.measured_s,
                "measured_cpu_s": self.cpu_ended - self.cpu_begun}


class ProfiledPhase(Phase):
    """Runs cProfile over the measured phase only."""

    def __init__(self):
        super().__init__()
        self.profiler = cProfile.Profile()

    def begin(self) -> None:
        super().begin()
        self.profiler.enable()

    def end(self) -> None:
        self.profiler.disable()
        super().end()


class WaitProbe:
    """Sums simulated time between ``Resource.request`` and its grant.

    It appends a callback to the request event, which schedules nothing,
    so the probed run keeps the plain run's event order."""

    def __init__(self):
        self.wait_s = 0.0
        self.active = False

    def _granted(self, event, asked_at: float) -> None:
        if self.active:
            self.wait_s += event.sim.now - asked_at

    @contextmanager
    def installed(self):
        original = Resource.request
        probe = self

        def request(resource_self, priority: int = 0):
            req = original(resource_self, priority)
            if probe.active:
                req.callbacks.append((probe._granted, (req.sim.now,)))
            return req

        Resource.request = request
        try:
            yield self
        finally:
            Resource.request = original


class ProbedPhase(Phase):
    def __init__(self, probe: WaitProbe):
        super().__init__()
        self.probe = probe

    def begin(self) -> None:
        super().begin()
        self.probe.active = True

    def end(self) -> None:
        self.probe.active = False
        super().end()


def run_round(workload, seed: int, phase: Phase) -> Episode:
    gc.collect()
    return workload.episode(seed, phase)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def simulated_metrics(ep: Episode) -> Dict[str, float]:
    """Metrics that are exact for a seed (no wall clock)."""
    ops = ep.attempted
    c = ep.counters
    return {
        "get_p50_sim_us": percentile(ep.get_latency, 50) * 1e6,
        "get_p99_sim_us": percentile(ep.get_latency, 99) * 1e6,
        "set_p50_sim_us": percentile(ep.set_latency, 50) * 1e6,
        "set_p99_sim_us": percentile(ep.set_latency, 99) * 1e6,
        "sim_cpu_us_per_key_op": c["cpu_total"] / ops * 1e6,
        "hit_ratio": ep.hits / ep.gets,
        "failed_op_ratio": ep.failed / ops,
        "sim.events_per_key_op": c["events"] / ops,
        "net.deliveries_per_key_op": c["deliveries"] / ops,
        "net.wire_bytes_per_key_op": c["wire_bytes"] / ops,
        "transport.reads_per_key_op": c["transport_reads"] / ops,
        "transport.keys_per_batched_read": (
            c["batched_keys"] / c["batched_reads"]
            if c["batched_reads"] else 0.0),
        "transport.engine_cpu_sim_us_per_key_op":
            c["cpu_transport"] / ops * 1e6,
        "rpc.calls_per_key_op": c["rpc_calls"] / ops,
        "rpc.server_cpu_sim_us_per_key_op": c["cpu_rpc_server"] / ops * 1e6,
        "backend.evictions_per_set": (c["evictions"] / ep.sets
                                      if ep.sets else 0.0),
        "backend.cpu_sim_us_per_key_op": c["cpu_backend"] / ops * 1e6,
        "client.attempts_per_op": ep.attempts / ops,
        "client.retries_per_op": c["retries"] / ops,
        "client.cpu_sim_us_per_key_op": c["cpu_client"] / ops * 1e6,
        "telemetry.flight_events_per_op": c["flight_events"] / ops,
        "federation.windows": c.get("windows", 0),
        "federation.wan_messages_per_key_op":
            c.get("wan_messages", 0) / ops,
        "population.shed_ratio": (
            c["population_shed"] / c["population_offered"]
            if c.get("population_offered") else 0.0),
    }


def correctness_problems(ep: Episode) -> List[str]:
    problems = list(ep.problems)
    if ep.failed:
        problems.append(f"{ep.failed} of {ep.attempted} key-ops failed "
                        f"or were refused with no fault injected")
    if ep.counters["op_failures"]:
        problems.append(f"{ep.counters['op_failures']:.0f} client ops "
                        f"inside the program ended failed")
    for name, samples in (("get", ep.get_latency), ("set", ep.set_latency)):
        if len(samples) < MIN_P99_SAMPLES:
            problems.append(f"only {len(samples)} {name} latency samples; "
                            f"p99 needs {MIN_P99_SAMPLES}")
    return problems


def round_mismatches(reference: Episode, other: Episode,
                     label: str) -> List[str]:
    """Differences between two same-seed episodes (empty == identical)."""
    problems = []
    if other.digest != reference.digest:
        problems.append(f"{label}: op digest {other.digest} != "
                        f"{reference.digest}")
    if other.counters["events"] != reference.counters["events"]:
        problems.append(f"{label}: event count differs")
    if simulated_metrics(other) != simulated_metrics(reference):
        problems.append(f"{label}: simulated metrics differ")
    return problems


def per_layer_metrics(workload, seed: int) -> tuple:
    """Plain, profiled and probed rounds -> (episode, metrics, problems,
    per-round timings)."""
    plain_phase = Phase()
    plain = run_round(workload, seed, plain_phase)

    profiled_phase = ProfiledPhase()
    profiled = run_round(workload, seed, profiled_phase)
    profiler = profiled_phase.profiler
    profiler.create_stats()
    stats = profiler.stats

    probe = WaitProbe()
    probed_phase = ProbedPhase(probe)
    with probe.installed():
        probed = run_round(workload, seed, probed_phase)

    problems = (round_mismatches(plain, profiled, "profiled run") +
                round_mismatches(plain, probed, "probed run"))
    ops = plain.attempted
    metrics = simulated_metrics(plain)
    metrics["sim.wall_ns_per_event"] = (
        plain_phase.measured_s / plain.counters["events"] * 1e9)
    metrics["resources.requests_per_key_op"] = \
        layers.call_count(stats, Resource.request) / ops
    metrics["resources.sim_wait_us_per_key_op"] = probe.wait_s / ops * 1e6
    metrics["telemetry.spans_per_op"] = \
        layers.call_count(stats, Span.__init__) / ops
    self_s = layers.attribute_self_time(
        stats, layers.ModuleResolver(str(SRC), str(Path(__file__).parent)))
    total = sum(self_s.values())
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_us_per_key_op"] = self_s[layer] / ops * 1e6
    metrics["profile.unattributed_share"] = \
        self_s[layers.UNATTRIBUTED] / total
    metrics["profile.overhead_ratio"] = (profiled_phase.measured_s /
                                         plain_phase.measured_s)
    timings = [phase.summary() for phase in
               (plain_phase, profiled_phase, probed_phase)]
    return plain, metrics, problems, timings


def end_to_end_metrics(workload, seed: int, seconds: float) -> tuple:
    """Rounds until ``seconds`` pass (at least two) -> (episode, metrics,
    problems, per-round timings)."""
    started = time.perf_counter()
    phases: List[Phase] = []
    reference = None
    problems: List[str] = []
    while len(phases) < 2 or time.perf_counter() - started < seconds:
        phase = Phase()
        ep = run_round(workload, seed, phase)
        phases.append(phase)
        if reference is None:
            reference = ep
        else:
            problems += round_mismatches(reference, ep,
                                         f"round {len(phases)}")
    metrics = simulated_metrics(reference)
    metrics["key_ops_per_wall_s"] = reference.attempted / statistics.median(
        p.measured_s for p in phases)
    metrics["setup_s"] = statistics.median(p.setup_s for p in phases)
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return reference, metrics, problems, [p.summary() for p in phases]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    if args.trace:
        ep, values, problems, rounds = per_layer_metrics(workload,
                                                         args.seed)
        wanted = spec["per_layer"]
    else:
        ep, values, problems, rounds = end_to_end_metrics(
            workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    problems += correctness_problems(ep)

    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<40} {value:>16.6f} {entry['unit']:<10} "
              f"({entry['better']} is better)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    record = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == workload.name),
        "params": workload.params,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "samples": {
            "get": len(ep.get_latency),
            "set": len(ep.set_latency),
            "set_source": ep.set_latency_source,
            "beyond_p99": {
                "get": len(ep.get_latency) - math.ceil(
                    0.99 * len(ep.get_latency)),
                "set": len(ep.set_latency) - math.ceil(
                    0.99 * len(ep.set_latency))},
        },
        "op_digest": ep.digest,
        "events": int(ep.counters["events"]),
        "metrics": {e["name"]: {"value": values[e["name"]],
                                "unit": e["unit"], "better": e["better"]}
                    for e in wanted},
        "problems": problems,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": ep.attempted,
                      "failed": ep.failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
