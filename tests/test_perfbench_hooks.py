"""The benchmark's tracer replaces package functions by name (perfbench/
tracer.py, HOOKS) and reports a missing one as absent instead of failing, so
a rename would silently zero its per-layer metrics. This guard resolves every
hook target against the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


def test_every_benchmark_hook_target_resolves():
    hooks = _hooks()
    assert len(hooks) >= 10
    absent = []
    for _, module, attr in hooks:
        # The tracer looks modules up in sys.modules, where the submodule
        # inversepoint.classify is not shadowed by the function of that name.
        if not callable(getattr(importlib.import_module(module), attr, None)):
            absent.append(f"{module}.{attr}")
    assert absent == []
