"""Matrix parsing (CSV, JSON) and result serialization (JSON, TSV).

Floats are emitted with 17 significant digits, enough to round-trip any
64-bit value exactly. The JSON writers build their output by hand so that
key order and digits are byte-stable across runs.
"""

from __future__ import annotations

import json

import numpy as np

from .classify import Classification
from .core import Matrix, as_matrix
from .errors import ParseError, ValidationError
from .stochastic import certify

MATRIX_FORMATS = ("csv", "json")
RESULT_FORMATS = ("json", "tsv")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _json_num(v: float) -> str:
    """_fmt for JSON, which has no inf or NaN: +-1e999 (read back as +-inf), null."""
    s = _fmt(v)
    return {"inf": "1e999", "-inf": "-1e999", "nan": "null"}.get(s, s)


def _check_entry(v: float, line: int | None, column: int | None) -> float:
    if not np.isfinite(v):
        raise ValidationError(f"entry is not finite: {v!r}", line=line, column=column)
    if v < 0:
        raise ValidationError(f"entry is negative: {v!r}", line=line, column=column)
    return float(v)


def _parse_csv(text: str) -> Matrix:
    rows = []
    row_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip() == "":
            continue
        values = []
        for col, token in enumerate(raw.split(","), start=1):
            tok = token.strip()
            try:
                v = float(tok)
            except ValueError:
                raise ParseError(
                    f"line {lineno}, field {col}: not a number: {tok!r}",
                    line=lineno,
                    column=col,
                ) from None
            values.append(_check_entry(v, lineno, col))
        rows.append(values)
        row_lines.append(lineno)
    if not rows:
        raise ParseError("no rows found", line=1, column=1)
    width = len(rows[0])
    for values, lineno in zip(rows, row_lines):
        if len(values) != width:
            raise ParseError(
                f"line {lineno}: ragged row with {len(values)} values, expected {width}",
                line=lineno,
                column=len(values),
            )
    if len(rows) != width:
        raise ValidationError(
            f"expected a square matrix, got {len(rows)} rows of {width} values",
            line=row_lines[-1],
        )
    return Matrix(rows)


def _parse_json(text: str) -> Matrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", line=err.lineno, column=err.colno) from None
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise ValidationError('expected an object with keys "n" and "rows"')
    n = obj["n"]
    rows = obj["rows"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(rows, list) or len(rows) != n:
        raise ValidationError(f'"rows" must be a list of {n} rows')
    data = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"row {i} must be a list of {n} numbers", line=i + 1)
        values = []
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValidationError(
                    f"row {i}, column {j}: not a number: {v!r}", line=i + 1, column=j + 1
                )
            values.append(_check_entry(float(v), i + 1, j + 1))
        data.append(values)
    return Matrix(data)


def parse_matrix(text: str, fmt: str = "csv") -> Matrix:
    """Parse a nonnegative square matrix.

    CSV: n lines of n comma-separated decimal numbers, no header.
    JSON: {"n": int, "rows": [[...], ...]}.
    Malformed input raises ParseError; negative/NaN entries, ragged or
    non-square layouts raise ValidationError. Both carry line/column.
    """
    if fmt not in MATRIX_FORMATS:
        raise ValidationError(f"format must be one of {MATRIX_FORMATS}, got {fmt!r}")
    return _parse_csv(text) if fmt == "csv" else _parse_json(text)


def emit_matrix(M, fmt: str = "csv") -> str:
    """Inverse of parse_matrix; round-trips entries exactly."""
    if fmt not in MATRIX_FORMATS:
        raise ValidationError(f"format must be one of {MATRIX_FORMATS}, got {fmt!r}")
    mtx = as_matrix(M)
    if fmt == "csv":
        return "\n".join(",".join(_fmt(v) for v in row) for row in mtx.entries) + "\n"
    rows = ",".join("[" + ",".join(_fmt(v) for v in row) + "]" for row in mtx.entries)
    return f'{{"n":{mtx.n},"rows":[{rows}]}}\n'


def _classification_json(cls: Classification) -> str:
    const = "null" if cls.contraction_constant is None else _fmt(cls.contraction_constant)
    bits = [
        f'"nonnegative":{str(cls.nonnegative).lower()}',
        f'"positive_diagonal":{str(cls.positive_diagonal).lower()}',
        f'"primitive":{str(cls.primitive).lower()}',
        f'"contraction_condition":{str(cls.contraction_condition).lower()}',
        f'"contraction_constant":{const}',
        f'"has_zero_row":{str(cls.has_zero_row).lower()}',
    ]
    return "{" + ",".join(bits) + "}"


def emit_classification(cls: Classification) -> str:
    return _classification_json(cls) + "\n"


def emit_result(result, fmt: str = "json", matrix=None, include_trace: bool = False) -> str:
    """Serialize a SolveResult.

    JSON keys: x, residual, iterations, method, converged, classification,
    row_sums (computed from the matrix when given, else null), plus trace
    when requested and present. TSV: one "x<TAB>value" line per coordinate,
    then a residual line (and trace lines when requested).
    """
    if fmt not in RESULT_FORMATS:
        raise ValidationError(f"format must be one of {RESULT_FORMATS}, got {fmt!r}")
    xs = result.x.values
    trace = result.trace if include_trace and result.trace is not None else None
    if fmt == "tsv":
        lines = [f"x\t{_fmt(v)}" for v in xs]
        lines.append(f"residual\t{_fmt(result.residual)}")
        if trace is not None:
            lines.extend(f"trace\t{_fmt(v)}" for v in trace)
        return "\n".join(lines) + "\n"
    if matrix is not None:
        cert = certify(matrix, result.x)
        row_sums = "[" + ",".join(_json_num(v) for v in cert.row_sums) + "]"
    else:
        row_sums = "null"
    bits = [
        '"x":[' + ",".join(_fmt(v) for v in xs) + "]",
        f'"residual":{_json_num(result.residual)}',
        f'"iterations":{result.iterations}',
        f'"method":"{result.method_used}"',
        f'"converged":{str(result.converged).lower()}',
        f'"classification":{_classification_json(result.classification)}',
        f'"row_sums":{row_sums}',
    ]
    if trace is not None:
        bits.append('"trace":[' + ",".join(_json_num(v) for v in trace) + "]")
    return "{" + ",".join(bits) + "}\n"
