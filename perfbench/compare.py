#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (perfbench/out/
<workload>-seed<n>-trace<t>.json, copied aside after each set of runs). For
every workload and metric it prints both sides' medians and quartiles and,
for an end-to-end metric, whether the new median is worse than the base by
more than the bound in BENCHMARK.json. Results made with different backends
measure different code, so a comparison across backends is refused. Exits 1
if any end-to-end metric got worse beyond its bound.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): {metric: [values]}} and the set of backends seen."""
    table, backends = {}, set()
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        full = json.loads(path.read_text(encoding="utf-8"))
        backends.add(full["environment"]["backend"])
        metrics = table.setdefault((full["workload"], full["trace"]), {})
        for name, m in full["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return table, backends


def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return q[1], q[0], q[2]


def main() -> int:
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    base, base_backends = load(sys.argv[1])
    new, new_backends = load(sys.argv[2])
    if len(base_backends | new_backends) != 1:
        raise SystemExit(f"error: refusing to compare results from backends {sorted(base_backends | new_backends)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    for key in sorted(set(base) & set(new)):
        for name in base[key]:
            if name not in new[key]:
                continue
            b, bq1, bq3 = summary(base[key][name])
            n, nq1, nq3 = summary(new[key][name])
            verdict = ""
            if name in bounds and b:
                worse = (n - b) / b if bounds[name]["better"] == "lower" else (b - n) / b
                verdict = "WORSE BEYOND BOUND" if worse > bounds[name]["bound"] else "within bound"
                regressed |= worse > bounds[name]["bound"]
            print(f"{key[0]:12s} {name:40s} base {b:.5g} [{bq1:.5g}, {bq3:.5g}]  new {n:.5g} [{nq1:.5g}, {nq3:.5g}]  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
