"""One traced CLI invocation, as a child process of the benchmark.

    python3 perfbench/cli_child.py SPAWN_TIME SPANS_OUT solve --input F --format csv

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process (CLOCK_MONOTONIC, shared by all processes on Linux). The child times
its own start, the import of inversepoint.cli, and inversepoint.cli.main(argv)
with the benchmark's hooks installed, then writes the spans and the three
times to SPANS_OUT as JSON, once, and exits with main's return code.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spawn, out_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import inversepoint.cli

    t1 = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.solve_id = 0
    idx = tracer.open(tracer.name_id("cli.main"))
    try:
        rc = inversepoint.cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.uninstall()
    record = {
        "interpreter_s": T_START - spawn,
        "import_s": t1 - t0,
        "main_s": tracer.end[idx] - tracer.start[idx],
        "spans": tracer.to_dict(),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
