"""Module -> layer map and per-layer self-time from a cProfile run.

Every module under ``src/repro`` belongs to exactly one layer. A rule is
either a module name (``repro.core.client``) or a package prefix ending
in a dot (``repro.net.``); rules never overlap, and
``test_layers.py`` fails when a module matches no rule or more than one.

Self-time of code outside the program (builtins such as
``heapq.heappush``, stdlib modules such as ``dataclasses``) is charged
to the layer that called it, split by the time spent under each caller.
What reaches no program layer (the benchmark's own driver code, the
profiler itself) is reported as unattributed.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

#: Layer names, in reporting order. The first ten are the layers the
#: benchmark's per-layer metrics name; ``control`` holds the rest of
#: the program (cell control plane, storage tier, tools).
LAYERS = ("sim", "resources", "net", "transport", "rpc", "client",
          "backend", "telemetry", "federation", "population", "control")

LAYER_RULES: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim", "repro.sim.core", "repro.sim.rand"),
    "resources": ("repro.sim.resources",),
    "net": ("repro.net.",),
    "transport": ("repro.transport.",),
    "rpc": ("repro.rpc.",),
    "client": ("repro.core.client", "repro.core.quorum",
               "repro.core.hashing", "repro.core.version",
               "repro.core.resilience", "repro.core.checksum"),
    "backend": ("repro.core.backend", "repro.core.index",
                "repro.core.slab", "repro.core.eviction",
                "repro.core.data", "repro.core.tombstone"),
    "telemetry": ("repro.telemetry.", "repro.observe."),
    "federation": ("repro.sim.parallel", "repro.core.parallelfed",
                   "repro.core.federation"),
    "population": ("repro.workloads.",),
    "control": ("repro", "repro.core", "repro.core.cell",
                "repro.core.config", "repro.core.errors",
                "repro.core.maintenance", "repro.core.repair",
                "repro.core.resize", "repro.core.truetime",
                "repro.storage.", "repro.faults.", "repro.shims.",
                "repro.baselines.", "repro.model.", "repro.analysis.",
                "repro.tools.", "repro.testing"),
}

UNATTRIBUTED = "unattributed"


def _matches(rule: str, module: str) -> bool:
    if rule.endswith("."):
        return module.startswith(rule) or module == rule[:-1]
    return module == rule


def matching_layers(module: str) -> List[str]:
    """Every layer with a rule matching ``module`` (exactly one when the
    map is sound)."""
    return [layer for layer, rules in LAYER_RULES.items()
            if any(_matches(rule, module) for rule in rules)]


def layer_of(module: str) -> Optional[str]:
    found = matching_layers(module)
    return found[0] if len(found) == 1 else None


def program_modules(src_root: str) -> List[str]:
    """Dotted names of every module under ``src_root/repro``."""
    modules = []
    base = os.path.join(src_root, "repro")
    for dirpath, _dirs, files in os.walk(base):
        rel = os.path.relpath(dirpath, src_root).replace(os.sep, ".")
        for name in files:
            if not name.endswith(".py"):
                continue
            stem = name[:-3]
            modules.append(rel if stem == "__init__" else f"{rel}.{stem}")
    return sorted(modules)


class ModuleResolver:
    """Maps a code object's filename to a program module (or None).

    Files under ``harness_root`` (the benchmark's own driver code) map to
    :data:`UNATTRIBUTED`: their self-time is the benchmark's, not a
    program layer's, and must not flow to the kernel that resumes them.
    """

    def __init__(self, src_root: str, harness_root: str):
        self._base = os.path.realpath(src_root) + os.sep
        self._harness = os.path.realpath(harness_root) + os.sep
        self._cache: Dict[str, Optional[str]] = {}

    def module(self, filename: str) -> Optional[str]:
        cached = self._cache.get(filename, "")
        if cached != "":
            return cached
        module = None
        path = os.path.realpath(filename) if filename not in ("~", "") \
            else ""
        if path.startswith(self._base) and path.endswith(".py"):
            dotted = path[len(self._base):-3].replace(os.sep, ".")
            if dotted.endswith(".__init__"):
                dotted = dotted[:-len(".__init__")]
            if dotted == "repro" or dotted.startswith("repro."):
                module = dotted
        elif path.startswith(self._harness):
            module = UNATTRIBUTED
        self._cache[filename] = module
        return module


def attribute_self_time(stats: dict, resolver: ModuleResolver
                        ) -> Dict[str, float]:
    """Self-seconds per layer from raw cProfile stats.

    ``stats`` is ``profiler.stats`` after ``create_stats()``:
    ``{func: (cc, nc, tt, ct, callers)}`` with ``callers[caller] =
    (nc, cc, tt, ct)`` for that edge. Program functions keep their own
    ``tt``; any other function's ``tt`` is split over its callers by the
    edge's ``tt`` (falling back to call counts), recursively, until it
    reaches a program layer or a root.
    """
    shares: Dict[tuple, Dict[str, float]] = {}
    in_progress = set()

    def own_layer(func) -> Optional[str]:
        module = resolver.module(func[0])
        if module is None or module == UNATTRIBUTED:
            return module
        return layer_of(module) or UNATTRIBUTED

    def share(func) -> Dict[str, float]:
        done = shares.get(func)
        if done is not None:
            return done
        if func in in_progress:  # a recursive caller chain
            return {UNATTRIBUTED: 1.0}
        layer = own_layer(func)
        if layer is not None:
            result = {layer: 1.0}
        elif func not in stats:
            result = {UNATTRIBUTED: 1.0}
        else:
            in_progress.add(func)
            callers = stats[func][4]
            weights = _edge_weights(callers)
            total = sum(weights.values())
            result = {}
            if total <= 0:
                result[UNATTRIBUTED] = 1.0
            else:
                for caller, weight in weights.items():
                    for name, part in share(caller).items():
                        result[name] = result.get(name, 0.0) + \
                            part * weight / total
            in_progress.discard(func)
        shares[func] = result
        return result

    seconds = {layer: 0.0 for layer in LAYERS}
    seconds[UNATTRIBUTED] = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0:
            continue
        for name, part in share(func).items():
            seconds[name] += tt * part
    return seconds


def _edge_weights(callers: dict) -> Dict[tuple, float]:
    weights = {caller: edge[2] for caller, edge in callers.items()}
    if sum(weights.values()) <= 0:
        weights = {caller: float(edge[0]) for caller, edge in callers.items()}
    return weights


def call_count(stats: dict, function) -> int:
    """Calls of one program function, looked up by its code object.

    Exact for plain functions; a generator function counts each resume,
    so count generators some other way."""
    code = function.__code__
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry else 0


__all__ = ["LAYERS", "LAYER_RULES", "UNATTRIBUTED", "matching_layers",
           "layer_of", "program_modules", "ModuleResolver",
           "attribute_self_time", "call_count"]
