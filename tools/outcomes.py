"""Which solver outcomes does a change move? Runs every method on one corpus in
two source trees and compares the outcomes bitwise.

    python tools/outcomes.py PARENT_DIR CHANGE_DIR

Each tree's src/ is imported in a child interpreter of its own, with one BLAS
thread. Both children build the corpus from this checkout's
perfbench/inputs.py and tests/helpers.py, which are read and never edited:
the small_mixed and large_dense pools for seeds 1-3 and passes 0-2,
known_defects(1-3) and the 100 wide_range_draws(), 2704 inputs, each solved
by all four methods at the default SolverConfig. An outcome is the
SolveResult, or the error's type, text and row with the result it carries; a
result also gives the sha256 of the JSON the CLI would print for it (with the
trace and row sums), and every outcome the sha256 of its input as
emit_matrix writes it in CSV and in JSON, so a change to io shows up as moved.

The report counts the outcomes that moved per method and field, names the
first labels that moved, and gives the largest change of x in ulps. The exit
code is 0 only when every outcome is bitwise the parent's, else 1. Compare two
trees on one machine: another BLAS build or CPU may round differently.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
METHODS = ("auto", "bracket", "contraction", "newton")
RESULT_FIELDS = ("x", "trace", "iterations", "method", "converged", "residual", "classification", "json")
FIELDS = RESULT_FIELDS + ("error", "text", "row", "matrix_csv", "matrix_json")
SHOW_LABELS = 5


def _corpus():
    """(label, matrix) for every input, built from this checkout's files."""
    import helpers
    import inputs

    out = []
    for seed in (1, 2, 3):
        for pass_index in (0, 1, 2):
            for pool, build in inputs.POOLS.items():
                out += [(f"{pool}/s{seed}/p{pass_index}/{k}", item.matrix)
                        for k, item in enumerate(build(seed, pass_index))]
    for seed in (1, 2, 3):
        out += [(f"known_defects/s{seed}/{k}", item.matrix) for k, item in enumerate(inputs.known_defects(seed))]
    out += [(f"wide_range/{k}", m) for k, m in enumerate(helpers.wide_range_draws())]
    return out


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _fields(res, m, emit_result):
    """A SolveResult on m as comparable values; floats and arrays as their
    bytes, and emit_result's JSON as its sha256."""
    if res is None:
        return dict.fromkeys(RESULT_FIELDS)
    return {
        "x": res.x.values.tobytes(),
        "trace": res.trace.tobytes(),
        "iterations": res.iterations,
        "method": res.method_used,
        "converged": res.converged,
        "residual": np.float64(res.residual).tobytes(),
        "classification": repr(res.classification),
        "json": _sha256(emit_result(res, "json", matrix=m, include_trace=True)),
    }


def _child(src):
    """Solve the corpus with the package under src; pickle the outcomes to stdout."""
    import warnings

    sys.path[:0] = [src, str(ROOT / "perfbench"), str(ROOT / "tests")]
    import inversepoint

    if Path(inversepoint.__file__).resolve().parent != Path(src).resolve() / "inversepoint":
        raise SystemExit(f"error: imported inversepoint from {inversepoint.__file__}, not {src}")
    warnings.simplefilter("ignore")  # overflow warnings of the 1e+-300 inputs, the same in both trees
    outcomes = []
    for label, m in _corpus():
        written = {f"matrix_{fmt}": _sha256(inversepoint.emit_matrix(m, fmt)) for fmt in ("csv", "json")}
        for method in METHODS:
            err = None
            try:
                res = inversepoint.solve(m, inversepoint.SolverConfig(method=method))
            except Exception as caught:  # noqa: BLE001 - any error is an outcome to compare
                err, res = caught, getattr(caught, "result", None)
            out = {**_fields(res, m, inversepoint.emit_result),
                   "error": None if err is None else type(err).__name__,
                   "text": None if err is None else str(err), "row": getattr(err, "row", None), **written}
            outcomes.append((label, method, out))
    pickle.dump(outcomes, sys.stdout.buffer)


def _run(tree):
    src = Path(tree).resolve() / "src"
    if not (src / "inversepoint").is_dir():
        raise SystemExit(f"error: {tree} has no src/inversepoint")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, __file__, "--child", str(src)], env=env, capture_output=True)
    if proc.returncode:
        raise SystemExit(f"error: the run of {tree} failed:\n{proc.stderr.decode(errors='replace')}")
    return pickle.loads(proc.stdout)


def _ulps(a, b):
    """Largest distance in ulps between the bytes of two positive float64
    vectors of one length (the same input's x in both trees)."""
    ia, ib = np.frombuffer(a, dtype=np.int64), np.frombuffer(b, dtype=np.int64)
    return int(np.max(np.abs(ia - ib)))


def compare(parent, change) -> int:
    """Print what moved from parent to change; the number of moved outcomes."""
    if [o[:2] for o in parent] != [o[:2] for o in change]:
        raise SystemExit("error: the two runs solved different corpora")
    moved = Counter()
    labels = {method: [] for method in METHODS}
    worst = {}
    for (label, method, old), (_, _, new) in zip(parent, change):
        fields = [f for f in FIELDS if old[f] != new[f]]
        for f in fields:
            moved[method, f] += 1
        if fields:
            moved[method, "any"] += 1
            labels[method].append(f"{label} ({', '.join(fields)})")
        if "x" in fields and None not in (old["x"], new["x"]):
            ulps = _ulps(old["x"], new["x"])
            if ulps > worst.get(method, (0, ""))[0]:
                worst[method] = (ulps, label)
    inputs = len(parent) // len(METHODS)
    print(f"{len(parent)} outcomes: {inputs} inputs x {len(METHODS)} methods")
    width = max(len(f) for f in FIELDS)
    print(f"{'moved':<{width}} " + " ".join(f"{m:>11}" for m in METHODS))
    for f in ("any",) + FIELDS:
        print(f"{f:<{width}} " + " ".join(f"{moved[m, f]:>11}" for m in METHODS))
    for run, name in ((parent, "parent"), (change, "change")):
        converged = Counter(method for _, method, o in run if o["error"] is None and o["converged"])
        print(f"converged ({name}): " + ", ".join(f"{m} {converged[m]}" for m in METHODS))
    for method in METHODS:
        if labels[method]:
            print(f"{method}: first moved of {len(labels[method])}:")
            for line in labels[method][:SHOW_LABELS]:
                print(f"  {line}")
        if method in worst:
            print(f"{method}: x moved by up to {worst[method][0]} ulps ({worst[method][1]})")
    total = sum(moved[m, "any"] for m in METHODS)
    print("bitwise the parent's" if total == 0 else f"{total} outcomes moved")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent's tree, holding src/inversepoint")
    parser.add_argument("change", help="the changed tree, holding src/inversepoint")
    args = parser.parse_args(argv)
    with ThreadPoolExecutor(max_workers=2) as pool:
        parent, change = pool.map(_run, (args.parent, args.change))
    return 1 if compare(parent, change) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2])
    else:
        sys.exit(main())
