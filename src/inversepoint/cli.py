"""Command-line interface.

Subcommands: solve (find the scaling vector), check (emit the matrix
classification), curves (sample the per-row solution curves/surfaces for
n = 2 or 3). Results go to stdout, diagnostics to stderr. main alone maps
an error to an exit code, by the error families of errors.py: 0 success, 1 for
a ValidationError (invalid input or violated precondition), 2 for a
ConvergenceError (the numerics failed; the best iterate is still emitted when
there is one). A reader that closes stdout early ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .classify import classify
from .errors import ConvergenceError, InversePointError, ValidationError, ZeroRowError
from .fixedpoint import RowContext, _root
from .io import MATRIX_FORMATS, RESULT_FORMATS, emit_classification, emit_result, parse_matrix
from .solver import METHODS, SolverConfig, solve


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inversepoint",
        description="Find the positive vector x with M x = (1/x_1, ..., 1/x_n), "
        "i.e. the diagonal scaling making diag(x) M diag(x) row-stochastic.",
    )
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("--input", required=True, help="matrix file")
    matrix.add_argument("--format", choices=MATRIX_FORMATS, default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[matrix], help="solve for the scaling vector")
    p_solve.add_argument("--tol", type=float, default=1e-12)
    p_solve.add_argument("--max-iter", type=int, default=10000)
    p_solve.add_argument("--method", choices=METHODS, default="auto")
    p_solve.add_argument("--output", choices=RESULT_FORMATS, default="json")
    p_solve.add_argument("--trace", action="store_true", help="include the residual trace")
    p_solve.set_defaults(run=_run_solve)

    p_check = sub.add_parser("check", parents=[matrix], help="emit the matrix classification as JSON")
    p_check.set_defaults(run=_run_check)

    p_curves = sub.add_parser("curves", parents=[matrix],
                              help="sample solution curves (n=2) or surfaces (n=3)")
    p_curves.add_argument("--samples", type=int, default=200)
    p_curves.add_argument("--t-max", type=float, default=1.5)
    p_curves.set_defaults(run=_run_curves)
    return parser


def _load_matrix(args):
    try:
        with open(args.input, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"cannot read {args.input}: {err}") from err
    return parse_matrix(text, args.format)


def _run_solve(args) -> int:
    mtx = _load_matrix(args)
    config = SolverConfig(tol=args.tol, max_iter=args.max_iter, method=args.method)
    try:
        result = solve(mtx, config)
    except ConvergenceError as err:
        if err.result is not None:
            sys.stdout.write(emit_result(err.result, args.output, matrix=mtx, include_trace=args.trace))
        raise
    sys.stdout.write(emit_result(result, args.output, matrix=mtx, include_trace=args.trace))
    return 0


def _run_check(args) -> int:
    mtx = _load_matrix(args)
    sys.stdout.write(emit_classification(classify(mtx)))
    return 0


def _curve_rows(mtx, ts):
    """Yield CSV lines sampling each row's solution set on the grid ts^(n-1)
    of the positive orthant, the row's own coordinate filled in by f_value's
    root, whose check of the point the caller's grid has passed already."""
    for i in range(mtx.n):
        ctx = RowContext.from_matrix(mtx, i)
        for point in itertools.product(ts, repeat=mtx.n - 1):
            coords = [f"{t:.12g}" for t in point]
            coords.insert(i, "")
            try:
                coords[i] = f"{_root(ctx, float(ctx.off_diagonal.dot(point))):.12g}"
            except ZeroRowError:  # no root here: the coordinate stays empty and the row is skipped
                pass
            yield f"{i + 1}," + ",".join(coords) + f",{int(not coords[i])}\n"


def _run_curves(args) -> int:
    mtx = _load_matrix(args)
    if mtx.n not in (2, 3):
        raise ValidationError(f"curves supports n = 2 or 3, got n = {mtx.n}")
    if not (args.samples >= 1 and 0 < args.t_max < float("inf")):  # NaN fails too
        raise ValidationError("--samples must be >= 1 and --t-max positive")
    ts = [args.t_max * k / args.samples for k in range(1, args.samples + 1)]
    if ts[-1] == float("inf"):  # t_max * samples overflowed: fail before the first line is written
        raise ValidationError("coordinates must be finite and nonnegative")
    sys.stdout.write("curve_index," + "".join(f"x{j + 1}," for j in range(mtx.n)) + "skipped\n")
    sys.stdout.writelines(_curve_rows(mtx, ts))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:  # the reader stopped early, as `| head` does: not a failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InversePointError as err:  # the ConvergenceError family
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
