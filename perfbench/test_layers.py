"""Layer-map coverage and self-time attribution.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def test_every_program_module_maps_to_exactly_one_layer():
    modules = layers.program_modules(str(SRC))
    assert "repro.core.client" in modules
    bad = {module: layers.matching_layers(module) for module in modules
           if len(layers.matching_layers(module)) != 1}
    assert not bad, f"modules without exactly one layer: {bad}"


def test_every_rule_matches_some_module():
    modules = layers.program_modules(str(SRC))
    stale = [rule for rules in layers.LAYER_RULES.values() for rule in rules
             if not any(layers._matches(rule, m) for m in modules)]
    assert not stale, f"rules naming no module: {stale}"


def _func(path, name, line=1):
    return (str(path), line, name)


def test_builtin_and_stdlib_time_is_charged_to_the_calling_layer():
    kernel = _func(SRC / "repro" / "sim" / "core.py", "run")
    nic = _func(SRC / "repro" / "net" / "nic.py", "transmit")
    harness = _func(HERE / "workloads.py", "worker")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    stdlib = ("/usr/lib/python3/dataclasses.py", 10, "__init__")
    # {func: (cc, nc, tt, ct, callers)}, callers[caller] = (nc, cc, tt, ct)
    stats = {
        kernel: (1, 1, 2.0, 10.0, {}),
        nic: (1, 1, 1.0, 3.0, {kernel: (1, 1, 1.0, 3.0)}),
        harness: (1, 1, 0.5, 0.5, {}),
        # 3 s of heappush: 2 s under the kernel, 1 s under the NIC.
        heappush: (3, 3, 3.0, 3.0, {kernel: (2, 2, 2.0, 2.0),
                                     nic: (1, 1, 1.0, 1.0)}),
        # A stdlib helper called only by the harness stays unattributed.
        stdlib: (1, 1, 0.25, 0.25, {harness: (1, 1, 0.25, 0.25)}),
    }
    resolver = layers.ModuleResolver(str(SRC), str(HERE))
    seconds = layers.attribute_self_time(stats, resolver)
    assert seconds["sim"] == 4.0
    assert seconds["net"] == 2.0
    assert seconds[layers.UNATTRIBUTED] == 0.75
    assert sum(seconds.values()) == sum(s[2] for s in stats.values())
