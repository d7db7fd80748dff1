"""Command-line interface.

Subcommands: solve (find the scaling vector), check (emit the matrix
classification), curves (sample the per-row solution curves/surfaces for
n = 2 or 3). Results go to stdout, diagnostics to stderr. main alone maps
an error to an exit code, by the error families of errors.py: 0 success, 1 for
a ValidationError (invalid input or violated precondition), 2 for a
ConvergenceError (the numerics failed; the best iterate is still emitted when
there is one).
"""

from __future__ import annotations

import argparse
import sys

from .classify import classify
from .errors import ConvergenceError, InversePointError, ValidationError, ZeroRowError
from .fixedpoint import RowContext, f_value
from .io import MATRIX_FORMATS, RESULT_FORMATS, emit_classification, emit_result, parse_matrix
from .solver import METHODS, SolverConfig, solve


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inversepoint",
        description="Find the positive vector x with M x = (1/x_1, ..., 1/x_n), "
        "i.e. the diagonal scaling making diag(x) M diag(x) row-stochastic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve for the scaling vector")
    p_solve.add_argument("--input", required=True, help="matrix file")
    p_solve.add_argument("--format", choices=MATRIX_FORMATS, default="csv")
    p_solve.add_argument("--tol", type=float, default=1e-12)
    p_solve.add_argument("--max-iter", type=int, default=10000)
    p_solve.add_argument("--method", choices=METHODS, default="auto")
    p_solve.add_argument("--output", choices=RESULT_FORMATS, default="json")
    p_solve.add_argument("--trace", action="store_true", help="include the residual trace")

    p_check = sub.add_parser("check", help="emit the matrix classification as JSON")
    p_check.add_argument("--input", required=True, help="matrix file")
    p_check.add_argument("--format", choices=MATRIX_FORMATS, default="csv")

    p_curves = sub.add_parser("curves", help="sample solution curves (n=2) or surfaces (n=3)")
    p_curves.add_argument("--input", required=True, help="matrix file")
    p_curves.add_argument("--format", choices=MATRIX_FORMATS, default="csv")
    p_curves.add_argument("--samples", type=int, default=200)
    p_curves.add_argument("--t-max", type=float, default=1.5)
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


def _curve_rows(mtx, samples: int, t_max: float):
    """Yield CSV rows sampling each row's solution set in the positive
    orthant, with the row's own coordinate filled in by its root function."""
    n = mtx.n
    ts = [t_max * k / samples for k in range(1, samples + 1)]
    grids = [(t,) for t in ts] if n == 2 else [(u, v) for u in ts for v in ts]
    for i in range(n):
        ctx = RowContext.from_matrix(mtx, i)
        others = [j for j in range(n) if j != i]
        for point in grids:
            coords = [""] * n
            for j, t in zip(others, point):
                coords[j] = f"{t:.12g}"
            try:
                coords[i] = f"{f_value(ctx, point):.12g}"
                skipped = 0
            except ZeroRowError:
                skipped = 1
            yield f"{i + 1}," + ",".join(coords) + f",{skipped}"


def _run_curves(args) -> int:
    mtx = _load_matrix(args)
    if mtx.n not in (2, 3):
        raise ValidationError(f"curves supports n = 2 or 3, got n = {mtx.n}")
    if not (args.samples >= 1 and 0 < args.t_max < float("inf")):  # NaN fails too
        raise ValidationError("--samples must be >= 1 and --t-max positive")
    header = "curve_index,x1,x2,skipped" if mtx.n == 2 else "curve_index,x1,x2,x3,skipped"
    out = [header]
    out.extend(_curve_rows(mtx, args.samples, args.t_max))
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "check":
            return _run_check(args)
        return _run_curves(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InversePointError as err:  # the ConvergenceError family
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
