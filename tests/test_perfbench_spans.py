"""The benchmark's span targets resolve against the package.

``perfbench/spans.py`` wraps named functions and methods for its traced
runs; a name it lists that the package no longer defines fails only its
``--trace 1`` run. This test loads that file by path and checks that each
name is defined on its owner itself, in ``vars(owner)``, where the wrapper
looks it up.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_defined_where_the_benchmark_looks():
    targets = load_spans().layer_targets()
    assert len(targets) == 38
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in targets
        if attr not in vars(owner)
    ]
    assert missing == []
