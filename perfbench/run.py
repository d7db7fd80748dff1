#!/usr/bin/env python3
"""Benchmark of inversepoint: two workloads, five end-to-end metrics, and a
traced run that splits each solve across the package's modules.

    python3 perfbench/run.py --workload small_mixed --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 55

Run it from anywhere inside a checkout: it imports the package from the
checkout's src/ and writes only under perfbench/out/. One run is a closed
loop with one caller: each operation starts when the previous one returned.
With --trace 0 it reports the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run, whose spans are recorded from these files
by wrapping the package's functions where their callers look them up.
The last line of standard output is the result as one JSON object.

--all first runs the determinism self-check (a seed fixes the inputs and the
traced counts, another seed changes the inputs), then every workload untraced
and traced. It prints every metric with its unit and writes
perfbench/out/summary.json and perfbench/out/split.json, the traced self-time
split per input label that perfbench/baseline.json records.
"""

import os
import sys

# BLAS and OpenMP read their thread counts when numpy loads, so the cap is set
# before numpy is imported, here and, through the environment, in every child.
# One thread: every workload runs one caller, and an OpenBLAS pool of nproc
# threads adds about 80 ms to each interpreter's start (setup_s)
# on a 2-core machine while speeding up no solve of n <= 300 measurably.
NPROC = len(os.sched_getaffinity(0))
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracer import LAYER_UNITS, Tracer, io_layers, solver_layers, span_counts, split  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("small_mixed", "large_dense")
# The highest of p75, p90 and p99 that leaves at least ten samples beyond it
# in a 55-second run on a 2-core machine (at least 5000 and 80 samples).
# An untraced run goes on past --seconds until that many lie beyond it.
TAIL_PERCENTILE = {"small_mixed": 99, "large_dense": 75}
MIN_BEYOND_TAIL = 10
END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

TOL = 1e-12  # SolverConfig's default, which every solve here uses
ROW_SUM_DEFECT_BOUND = 1e-10
ORACLE_SAMPLE = 8
ORACLE_MAX_SWEEPS = 20000
ORACLE_RTOL = 1e-8
SETUP_RUNS = 10  # at least; an untraced run probes set-up once per pass
MIN_TRACED_PASSES = 2
CLI_PROBES = 5
WARMUP = [[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]]
SETUP_PROBE = f"import time, inversepoint; inversepoint.solve({WARMUP}); print(time.perf_counter())"


def import_package():
    if not (SRC / "inversepoint" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'inversepoint'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import inversepoint

    if Path(inversepoint.__file__).resolve().parent != SRC / "inversepoint":
        raise SystemExit(f"error: imported inversepoint from {inversepoint.__file__}, not {SRC}")
    return inversepoint


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("INVERSEPOINT_SEED", None)
    return env


def environment(ip) -> dict:
    return {
        "backend": ip.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": NPROC,
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
    }


def spawn(argv, env):
    """Run a child to completion: (exit code, stdout)."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    return proc.returncode, proc.stdout


def setup_seconds(env) -> float:
    """Fresh interpreter to `import inversepoint` plus one 3x3 solve returned.
    The child prints its time.perf_counter(), which on Linux reads the same
    CLOCK_MONOTONIC as the parent's."""
    t0 = time.perf_counter()
    rc, out = spawn([sys.executable, "-c", SETUP_PROBE], env)
    if rc != 0:
        raise SystemExit(f"error: set-up probe exited with {rc}")
    return float(out) - t0


class Run:
    """What one run records: latencies, failures and gate misses."""

    def __init__(self):
        self.latency: list[float] = []
        self.timed = 0.0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.gate_misses: list[str] = []
        self.oracle = {"checked": 0, "inconclusive": 0}

    def record(self, seconds, reason=None, miss=None):
        self.latency.append(seconds)
        if miss is not None:
            reason = "gate"
            self.gate_misses.append(miss)
        if reason is not None:
            self.failed += 1
            self.reasons[reason] += 1


def check(ip, matrix, res):
    """(failure reason, gate miss) for one outcome, a SolveResult or the name
    of the error raised; (None, None) if it passed."""
    if isinstance(res, str):
        return res, None
    if not res.converged:
        return "not converged", None
    if not res.residual <= TOL:
        return None, f"converged with residual {res.residual:.3e} > tol"
    defect = ip.certify(matrix, res.x).max_row_sum_defect
    if not defect <= ROW_SUM_DEFECT_BOUND:
        return None, f"converged with row-sum defect {defect:.3e}"
    return None, None


def oracle_misses(ip, run, pool, results, seed) -> dict[int, str]:
    """Compare a seeded sample of positive-diagonal n <= 5 solves with the
    oracle, run on the unscaled matrix and mapped by x(cM) = x(M)/sqrt(c).
    Returns the misses by pool index."""
    candidates = [i for i, it in enumerate(pool) if it.kind != "zero_diag" and it.n <= 5]
    rng = np.random.default_rng([seed, 4])
    picks = rng.choice(len(candidates), size=min(ORACLE_SAMPLE, len(candidates)), replace=False)
    misses = {}
    for i in sorted(candidates[p] for p in picks):
        res = results[i]
        if isinstance(res, str) or not res.converged:
            continue  # already counted as a failure
        try:
            ref = ip.oracle_solve(pool[i].base, tol=TOL, max_sweeps=ORACLE_MAX_SWEEPS).values
        except ip.OracleDivergenceError:
            run.oracle["inconclusive"] += 1
            continue
        run.oracle["checked"] += 1
        ref = ref / np.sqrt(pool[i].scale)
        err = float(np.max(np.abs(res.x.values - ref) / ref))
        if not err <= ORACLE_RTOL:
            misses[i] = f"{pool[i].kind} n={pool[i].n}: relative distance {err:.3e} from the oracle"
    return misses


def inprocess_pass(ip, pool, tracer, first_id):
    """One pass of inversepoint.solve(ndarray) calls: (wall seconds, ops).
    Of an error only the name is kept: its traceback would hold the solver's
    frames alive and inflate the peak RSS by a seed-dependent amount."""
    matrices = [it.matrix for it in pool]
    ops = []
    solve = ip.solve
    nid = tracer.name_id("solver.solve") if tracer is not None else 0
    begin = time.perf_counter()
    for k, m in enumerate(matrices):
        if tracer is not None:
            tracer.solve_id = first_id + k
            idx = tracer.open(nid)
        t0 = time.perf_counter()
        try:
            res = solve(m)
        except ip.InversePointError as err:
            res = type(err).__name__
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(idx)
        ops.append((t1 - t0, m, res))
    return time.perf_counter() - begin, ops


def run_passes(ip, workload, seed, seconds, trace):
    """Closed loop over pools, one pass at a time, until `seconds` have gone.
    Untraced, each pass draws a fresh pool. Traced, untraced and traced passes
    over pool 0 alternate: their times give the tracing overhead, and every
    traced pass must repeat the same counts."""
    make = inputs.POOLS[workload]
    env = child_env()
    ip.solve(WARMUP)
    if trace:
        import inversepoint.cli  # noqa: F401  (its functions are hook targets)
    run = Run()
    tracer = Tracer() if trace else None
    sizes, labels, pass_counts, walls = [], [], [], {False: [], True: []}
    setups = []
    begin = time.perf_counter()
    k = 0
    while True:
        traced = bool(trace) and k % 2 == 1
        pool = make(seed, 0 if trace else k)
        if traced:
            before = span_counts(tracer)
            tracer.install()
        wall, ops = inprocess_pass(ip, pool, tracer if traced else None, len(sizes))
        walls[traced].append(wall)
        run.timed += wall
        if traced:
            tracer.uninstall()
            after = span_counts(tracer)
            pass_counts.append({name: after[name] - before.get(name, 0) for name in after})
            sizes += [it.n for it in pool]
            labels += [f"{it.kind} n={it.n}" if workload == "large_dense" else it.kind for it in pool]
        misses = oracle_misses(ip, run, pool, [res for _, _, res in ops], seed) if k == 0 else {}
        for i, (sec, matrix, res) in enumerate(ops):
            reason, miss = check(ip, matrix, res)
            run.record(sec, reason, miss or misses.get(i))
        if not trace:
            # One probe per pass, so that setup_s samples the whole run.
            setups.append(setup_seconds(env))
        k += 1
        if trace:
            enough = len(pass_counts) >= MIN_TRACED_PASSES
        else:
            enough = beyond_tail(run.latency, TAIL_PERCENTILE[workload]) >= MIN_BEYOND_TAIL
        if time.perf_counter() - begin >= seconds and enough:
            break
    if not trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += [setup_seconds(env) for _ in range(SETUP_RUNS - len(setups))]
        return run, {"passes": k, "peak_rss_mb": rss, "setup_s": statistics.median(setups)}
    layers = solver_layers(tracer, sizes)
    layers.update(cli_probe_layers(ip, run, seed))
    layers["trace.overhead_ratio"] = statistics.mean(walls[True]) / statistics.mean(walls[False])
    layers["probe.known_defect_failures"] = known_defect_failures(ip, seed)
    if any(c != pass_counts[0] for c in pass_counts):
        run.gate_misses.append("traced passes over the same inputs made different calls")
    counts = json.dumps(pass_counts[0], sort_keys=True)
    name, parent, solve, dur, self_t = tracer.arrays()
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(
        OUT / f"{workload}-seed{seed}-spans.npz", names=np.array(tracer.names), name=name, parent=parent,
        solve=solve, start=np.frombuffer(tracer.start, dtype=np.float64), duration=dur, self_time=self_t,
    )
    return run, {
        "passes": k,
        "counts_per_pass": pass_counts[0],
        "counts_hash": hashlib.sha256(counts.encode()).hexdigest(),
        "absent": tracer.absent,
        "split_ms_per_solve": split(tracer, labels),
        "layers": layers,
    }


def known_defect_failures(ip, seed) -> int:
    """How many of the inputs that fail today (inputs.known_defects) still
    fail. They are solved once, untimed and untraced, outside the workload's
    operations, so that a fix shows here and no operation of a run fails."""
    failures = 0
    for it in inputs.known_defects(seed):
        m = it.matrix
        try:
            res = ip.solve(m)
        except ip.InversePointError as err:
            res = type(err).__name__
        reason, miss = check(ip, m, res)
        failures += reason is not None or miss is not None
    return failures


def traced_cli(env, tmp, tag, argv_tail):
    """One traced CLI child: (exit code, stdout, record)."""
    spans_path = Path(tmp) / f"spans-{tag}.json"
    argv = [sys.executable, str(HERE / "cli_child.py"), repr(time.perf_counter()), str(spans_path), *argv_tail]
    rc, out = spawn(argv, env)
    return rc, out, json.loads(spans_path.read_text(encoding="utf-8"))


def cli_times(records) -> dict[str, float]:
    return {
        "cli.interpreter_ms": 1e3 * statistics.median(r["interpreter_s"] for r in records),
        "cli.import_ms": 1e3 * statistics.median(r["import_s"] for r in records),
        "cli.main_ms": 1e3 * statistics.median(r["main_s"] for r in records),
    }


def cli_probe_layers(ip, run, seed) -> dict[str, float]:
    """cli, io and stochastic layers, from one traced `inversepoint.cli solve`
    per file of inputs.cli_files(seed). Each CLI stdout must be byte-identical
    to an in-process emit_result of the same solve; a miss fails the run."""
    env = child_env()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tracer, records = Tracer(), []
        for k, it in enumerate(inputs.cli_files(seed)):
            path = Path(tmp) / f"{k}.{it.fmt}"
            path.write_text(inputs.matrix_text(it), encoding="utf-8")
            rc, out, record = traced_cli(env, tmp, k, ["solve", "--input", str(path), "--format", it.fmt])
            want = cli_expected(ip, path.read_text(encoding="utf-8"), it.fmt)
            if rc != 0 or want is None or out != want:
                run.gate_misses.append(f"CLI on {it.kind} n={it.n} {it.fmt}: exit {rc}, stdout is not emit_result's")
            tracer.extend(record["spans"], k)
            records.append(record)
    return {**io_layers(tracer), **cli_times(records)}


def cli_expected(ip, text, fmt):
    """The emit_result the CLI should print for a matrix file, or None if the
    in-process solve fails."""
    mtx = ip.parse_matrix(text, fmt)
    try:
        res = ip.solve(mtx)
    except ip.InversePointError:
        return None
    return ip.emit_result(res, "json", matrix=mtx).encode()


def percentile(values, p) -> float:
    return statistics.quantiles(values, n=100)[p - 1]


def beyond_tail(values, p) -> int:
    """How many of ``values`` lie above their p-th percentile."""
    if len(values) < 2:
        return 0
    cut = percentile(values, p)
    return sum(v > cut for v in values)


def run_workload(ip, workload, seed, seconds, trace) -> dict:
    make = inputs.POOLS[workload]
    input_hash = inputs.pool_hash(make(seed))
    if input_hash != inputs.pool_hash(make(seed)) or input_hash == inputs.pool_hash(make(seed + 1)):
        raise SystemExit("error: the inputs are not a function of the seed alone")
    run, extras = run_passes(ip, workload, seed, seconds, trace)
    tail = TAIL_PERCENTILE[workload]
    if trace:
        metrics = {name: {"value": extras["layers"][name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        lat_ms = [1e3 * s for s in run.latency]
        values = {
            "throughput_per_s": (len(run.latency) - run.failed) / run.timed,
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": percentile(lat_ms, tail),
            "setup_s": extras.pop("setup_s"),
            "peak_rss_mb": extras.pop("peak_rss_mb"),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        extras["samples_beyond_tail"] = beyond_tail(lat_ms, tail)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(ip),
        "input_hash": input_hash,
        "samples": len(run.latency),
        "tail_percentile": tail,
        "fail_reasons": dict(run.reasons),
        "gate_misses": run.gate_misses,
        "oracle": run.oracle,
        **{k: v for k, v in extras.items() if k != "layers"},
        "result": {
            "correct": not run.gate_misses,
            "attempted": len(run.latency),
            "failed": run.failed,
            "metrics": metrics,
        },
    }


def report(full: dict) -> None:
    env = full["environment"]
    print(
        f"{full['workload']}  seed {full['seed']}  trace {full['trace']}  backend {env['backend']}  "
        f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  threads capped at {THREAD_CAP}"
    )
    print(
        f"  inputs {full['input_hash'][:16]}  passes {full['passes']}  samples {full['samples']}  "
        f"latency_tail_ms is p{full['tail_percentile']}  oracle {full['oracle']}  failures {full['fail_reasons']}"
    )
    if "samples_beyond_tail" in full:
        print(f"  {full['samples_beyond_tail']} samples beyond p{full['tail_percentile']}")
    for miss in full["gate_misses"][:10]:
        print(f"  GATE MISS: {miss}")
    if full.get("absent"):
        print(f"  absent hook targets: {', '.join(full['absent'])}")
    for name, m in full["result"]["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for label, row in full.get("split_ms_per_solve", {}).items():
        total = sum(row.values())
        parts = "  ".join(f"{name} {ms:.4g}" for name, ms in row.items() if ms >= 0.02 * total)
        print(f"  self ms/solve [{label}] total {total:.4g}: {parts}")


def bench_child(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} trace {trace} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))


def selfcheck(seed) -> bool:
    """Same seed, same inputs and traced counts; another seed, other inputs."""
    ok = True
    for workload in WORKLOADS:
        a, b = (bench_child(workload, seed, 1, 1) for _ in range(2))
        other = inputs.pool_hash(inputs.POOLS[workload](seed + 1))
        same_inputs = a["input_hash"] == b["input_hash"] != other
        same_counts = a["counts_hash"] == b["counts_hash"]
        print(f"selfcheck {workload}: inputs {'ok' if same_inputs else 'DIFFER'}, traced counts {'ok' if same_counts else 'DIFFER'}")
        ok &= same_inputs and same_counts
    return ok


def run_all(ip, seed, seconds) -> int:
    # The self-check's short traced runs go first, so that the result files
    # and spans they write are replaced by those of the timed runs.
    ok = selfcheck(seed)
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            full = bench_child(workload, seed, seconds, trace)
            report(full)
            summary[f"{workload}/trace{trace}"] = full
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    split_ms = {
        "about": f"run.py --all --seed {seed} --seconds {seconds:g}: traced self time in ms per solve, "
        "by hooked function, overall and per input label",
        "environment": environment(ip),
        **{w: {k: summary[f"{w}/trace1"][k] for k in ("split_ms_per_solve", "counts_per_pass")} for w in WORKLOADS},
    }
    (OUT / "split.json").write_text(json.dumps(split_ms, indent=1), encoding="utf-8")
    correct = ok and all(full["result"]["correct"] for full in summary.values())
    print(json.dumps({"correct": correct, "selfcheck": ok}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    args = parser.parse_args()
    ip = import_package()
    if args.all:
        return run_all(ip, args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    full = run_workload(ip, args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1), encoding="utf-8")
    report(full)
    print(json.dumps(full["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
