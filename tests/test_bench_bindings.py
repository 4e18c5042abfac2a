"""The benchmark in bench/ binds package names by string and by import.

A refactor that deletes or renames one of them should fail here, in the
test suite, rather than first in a benchmark run.  The bench files are
loaded by path and only read, never run.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_target_resolves():
    layers = _load("tracer").LAYERS
    assert layers
    for layer, targets in layers.items():
        for target in targets:
            owner = importlib.import_module(target[0])
            obj = getattr(owner, target[1], None)
            assert obj is not None, (layer, target)
            if len(target) == 3:
                # the tracer wraps the method in the class's own namespace
                assert target[2] in vars(obj), (layer, target)


def test_workload_imports_resolve():
    workloads = _load("workloads")
    assert callable(workloads.acceptance_actions)
