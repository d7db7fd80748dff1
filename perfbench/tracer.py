"""Spans around calls into inversepoint's modules, recorded from outside.

The tracer replaces each hooked function with a timing wrapper in the
namespace its caller looks it up in, so no code under src/ changes. A hook
whose target is gone is reported as absent rather than failing the run.
Spans stay in memory as flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, module whose attribute is replaced, attribute). The first part
# of the span name is the layer: the package module the function lives in.
HOOKS = (
    ("core.validate_solvable", "inversepoint.solver", "validate_solvable"),
    ("classify.classify", "inversepoint.solver", "classify"),
    # The package attribute inversepoint.classify is the function, so the
    # module is reached through sys.modules.
    ("classify.is_primitive", "inversepoint.classify", "is_primitive"),
    ("solver.solve_newton", "inversepoint.solver", "solve_newton"),
    ("kernels.f_apply", "inversepoint._kernels", "f_apply"),
    ("kernels.residual_inf", "inversepoint._kernels", "residual_inf"),
    ("kernels.quad_defect", "inversepoint._kernels", "quad_defect"),
    ("kernels.newton_system", "inversepoint._kernels", "newton_system"),
    ("kernels.gauss_solve", "inversepoint._kernels", "gauss_solve"),
    ("io.parse_matrix", "inversepoint.cli", "parse_matrix"),
    ("io.emit_result", "inversepoint.cli", "emit_result"),
    ("solver.solve", "inversepoint.cli", "solve"),
    ("stochastic.certify", "inversepoint.io", "certify"),
)

# Units of the per-layer metrics, in the order they are reported.
LAYER_UNITS = {
    "core.validate_calls_per_solve": "calls/solve",
    "core.validate_us_per_solve": "us",
    "classify.calls_per_solve": "calls/solve",
    "classify.ms_per_solve": "ms",
    "classify.is_primitive_ms_per_call": "ms",
    "solver.iterations_per_solve": "iter/solve",
    "solver.self_us_per_iter": "us",
    "solver.newton_fallback_rate": "ratio",
    "solver.prefallback_iters_per_solve": "iter/solve",
    "solver.newton_ms_per_solve": "ms",
    "solver.line_search_trials_per_step": "trials/step",
    "kernels.f_apply.calls_per_solve": "calls/solve",
    "kernels.f_apply.us_per_call": "us",
    "kernels.residual_inf.calls_per_solve": "calls/solve",
    "kernels.residual_inf.us_per_call": "us",
    "kernels.gauss_solve.calls_per_solve": "calls/solve",
    "kernels.gauss_solve.ms_per_call": "ms",
    "kernels.gauss_solve.flops_computed": "flop/solve",
    "io.parse_us_per_call": "us",
    "io.emit_us_per_call": "us",
    "stochastic.certify_us_per_call": "us",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_ratio": "ratio",
    # Not a layer: how many of the inputs that fail today still fail.
    "probe.known_defect_failures": "count",
}


class Tracer:
    """Records one span per call of a hooked function: its name, start, end,
    the enclosing span and the solve it belongs to (``solve_id``, set by the
    caller before each solve)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.solve_id = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, span: str, fn):
        nid = self.name_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def install(self) -> None:
        """Wrap every hook target that exists; list the others in ``absent``."""
        self.absent = []
        for span, modname, attr in HOOKS:
            mod = sys.modules.get(modname)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(span, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "solve": self.solve.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "absent": self.absent,
        }

    def extend(self, spans: dict, solve_id: int) -> None:
        """Append spans recorded by another process, as solve ``solve_id``."""
        offset = len(self.start)
        remap = [self.name_id(n) for n in spans["names"]]
        self.name.extend(remap[i] for i in spans["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in spans["parent"])
        self.solve.extend(solve_id for _ in spans["solve"])
        self.start.extend(spans["start"])
        self.end.extend(spans["end"])
        self.absent = sorted(set(self.absent) | set(spans["absent"]))

    def arrays(self):
        """(name ids, parent, solve, duration, self time) as numpy arrays."""
        name = np.frombuffer(self.name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        solve = np.frombuffer(self.solve, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return name, parent, solve, dur, dur - child


def _ratio(a, b) -> float:
    return float(a) / float(b) if b else 0.0


def span_counts(tracer: Tracer) -> dict[str, int]:
    """Calls per span name: the exact counts a run must reproduce."""
    ids = np.frombuffer(tracer.name, dtype=np.intc)
    counts = np.bincount(ids, minlength=len(tracer.names))
    return {name: int(counts[i]) for i, name in enumerate(tracer.names)}


def solver_layers(tracer: Tracer, sizes: list[int]) -> dict[str, float]:
    """Per-layer metrics of the solves recorded in ``tracer``; solve k had
    matrix size ``sizes[k]``. Times are self times (a span minus the spans it
    encloses), except solver.newton_ms_per_solve, the whole Newton phase."""
    name, _, solve, dur, self_t = tracer.arrays()
    solves = len(sizes)

    def ids(span):
        return name == tracer._ids.get(span, -1)

    def calls(span):
        return int(ids(span).sum())

    def self_s(span):
        return float(self_t[ids(span)].sum())

    def layer_self_s(layer):
        members = [i for i, n in enumerate(tracer.names) if n.split(".")[0] == layer]
        return float(self_t[np.isin(name, members)].sum())

    iterations = calls("kernels.f_apply") + calls("kernels.newton_system")
    newton_solves = np.unique(solve[ids("solver.solve_newton")])
    f_in_fallback = int(np.isin(solve[ids("kernels.f_apply")], newton_solves).sum())
    n = np.asarray(sizes, dtype=np.float64)
    gauss_n = n[solve[ids("kernels.gauss_solve")]]
    return {
        "core.validate_calls_per_solve": _ratio(calls("core.validate_solvable"), solves),
        "core.validate_us_per_solve": 1e6 * _ratio(self_s("core.validate_solvable"), solves),
        "classify.calls_per_solve": _ratio(calls("classify.classify"), solves),
        "classify.ms_per_solve": 1e3 * _ratio(layer_self_s("classify"), solves),
        "classify.is_primitive_ms_per_call": 1e3 * _ratio(self_s("classify.is_primitive"), calls("classify.is_primitive")),
        "solver.iterations_per_solve": _ratio(iterations, solves),
        "solver.self_us_per_iter": 1e6 * _ratio(layer_self_s("solver"), iterations),
        "solver.newton_fallback_rate": _ratio(newton_solves.size, solves),
        "solver.prefallback_iters_per_solve": _ratio(f_in_fallback, solves),
        "solver.newton_ms_per_solve": 1e3 * _ratio(float(dur[ids("solver.solve_newton")].sum()), solves),
        # Each Newton call evaluates the defect once before its first step.
        "solver.line_search_trials_per_step": _ratio(
            calls("kernels.quad_defect") - calls("solver.solve_newton"), calls("kernels.newton_system")
        ),
        "kernels.f_apply.calls_per_solve": _ratio(calls("kernels.f_apply"), solves),
        "kernels.f_apply.us_per_call": 1e6 * _ratio(self_s("kernels.f_apply"), calls("kernels.f_apply")),
        "kernels.residual_inf.calls_per_solve": _ratio(calls("kernels.residual_inf"), solves),
        "kernels.residual_inf.us_per_call": 1e6 * _ratio(self_s("kernels.residual_inf"), calls("kernels.residual_inf")),
        "kernels.gauss_solve.calls_per_solve": _ratio(calls("kernels.gauss_solve"), solves),
        "kernels.gauss_solve.ms_per_call": 1e3 * _ratio(self_s("kernels.gauss_solve"), calls("kernels.gauss_solve")),
        # Computed as 2n^3/3 per elimination, not measured by a counter.
        "kernels.gauss_solve.flops_computed": _ratio(float((2.0 * gauss_n**3 / 3.0).sum()), solves),
    }


def io_layers(tracer: Tracer) -> dict[str, float]:
    name, _, _, _, self_t = tracer.arrays()

    def per_call_us(span):
        sel = name == tracer._ids.get(span, -1)
        return 1e6 * _ratio(float(self_t[sel].sum()), int(sel.sum()))

    return {
        "io.parse_us_per_call": per_call_us("io.parse_matrix"),
        "io.emit_us_per_call": per_call_us("io.emit_result"),
        "stochastic.certify_us_per_call": per_call_us("stochastic.certify"),
    }


def split(tracer: Tracer, labels: list[str]) -> dict[str, dict[str, float]]:
    """Self time in ms per solve of each hooked function, overall and per
    input label (solve k has label ``labels[k]``). A function's layer is the
    first part of its name, so layer totals are sums over these entries."""
    name, _, solve, _, self_t = tracer.arrays()
    keys = sorted(set(labels))
    label_of_solve = np.array([keys.index(lab) for lab in labels])
    solves_per_label = np.bincount(label_of_solve, minlength=len(keys))
    width = len(tracer.names)
    cell = label_of_solve[solve] * width + name
    table = np.bincount(cell, weights=self_t, minlength=len(keys) * width).reshape(len(keys), width)
    rows = {"all": table.sum(axis=0) / len(labels)}
    rows.update((key, table[i] / solves_per_label[i]) for i, key in enumerate(keys))
    return {key: {tracer.names[j]: 1e3 * float(row[j]) for j in np.argsort(-row) if row[j] > 0} for key, row in rows.items()}
