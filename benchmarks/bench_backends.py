"""Compare the numba kernels against the pure-numpy fallback.

Runs the same workloads in two subprocesses, one per backend (the backend is
fixed at import time by INVERSEPOINT_NUMBA), and reports wall-clock times.
The numba child does an unmeasured warmup solve first so JIT compilation
(cached on disk after the first ever run) is not billed to the workload.

Needs numba (the ``[fast]`` extra). Each child is told which backend it
should run and checks that before any workload; without numba the numba
child exits at once and the script exits 1 with the reason it fell back.

Usage:
    python benchmarks/bench_backends.py [--repeats 3] [--matrices 150]
"""

import argparse
import json
import os
import subprocess
import sys
import time

CHILD_FLAG = "--child"


def workloads(n_matrices):
    import numpy as np

    import inversepoint as ip

    rng = np.random.default_rng(12345)
    mats = []
    for _ in range(n_matrices):
        n = int(rng.integers(2, 8))
        a = rng.uniform(0.0, 2.0, (n, n))
        a[np.diag_indices(n)] += 0.1
        mats.append(ip.Matrix(a))
    small = [m for m in mats if m.n <= 5]

    def bench_solve():
        for m in mats:
            ip.solve(m)

    def bench_multistart():
        for m in mats[:20]:
            ip.multistart_uniqueness(m, ip.SolverConfig(seed=1), starts=10)

    def bench_oracle():
        for m in small[:60]:
            ip.oracle_solve(m, tol=1e-11)

    return [("solve_auto", bench_solve), ("multistart", bench_multistart), ("oracle", bench_oracle)]


def run_child(expected, n_matrices, repeats):
    import inversepoint as ip

    if ip.BACKEND != expected:
        print(
            f"bench_backends: the INVERSEPOINT_NUMBA={os.environ.get('INVERSEPOINT_NUMBA')} "
            f"child ran the {ip.BACKEND} backend ({ip.BACKEND_REASON}); "
            'comparing backends needs numba: pip install -e ".[fast]"',
            file=sys.stderr,
        )
        return 1
    ip.solve(ip.Matrix([[2.0, 0.5], [0.5, 2.0]]))  # warmup / JIT
    results = {}
    for name, fn in workloads(n_matrices):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        results[name] = min(times)
    print(json.dumps(results))
    return 0


def run_parent(args):
    rows = {}
    for flag, label in (("1", "numba"), ("0", "numpy")):
        env = dict(os.environ, INVERSEPOINT_NUMBA=flag)
        proc = subprocess.run(
            [sys.executable, __file__, CHILD_FLAG, label, str(args.matrices), str(args.repeats)],
            capture_output=True,
            text=True,
            env=env,
        )
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return 1
        rows[label] = json.loads(proc.stdout.strip().splitlines()[-1])

    names = list(rows["numba"])
    width = max(len(n) for n in names)
    print(f"{'workload':<{width}}  {'numba':>10}  {'numpy':>10}  {'speedup':>8}")
    for name in names:
        tn = rows["numba"][name]
        tp = rows["numpy"][name]
        print(f"{name:<{width}}  {tn * 1e3:>8.1f}ms  {tp * 1e3:>8.1f}ms  {tp / tn:>7.1f}x")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == CHILD_FLAG:
        return run_child(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--matrices", type=int, default=150)
    return run_parent(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
