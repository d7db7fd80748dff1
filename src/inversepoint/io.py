"""Matrix parsing (CSV, JSON) and result serialization (JSON, TSV).

Floats are emitted with 17 significant digits, enough to round-trip any
64-bit value exactly. One JSON writer, _json, builds every JSON text by hand
so that key order and digits are byte-stable across runs.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import is_dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .classify import Classification
from .core import Matrix, _entries
from .errors import ParseError, ValidationError
from .stochastic import certify

MATRIX_FORMATS = ("csv", "json")
RESULT_FORMATS = ("json", "tsv")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _json(v) -> str:
    """v as JSON text. Floats (np.float64 is one) go through _fmt, but JSON has
    no inf or NaN: +-inf is +-1e999 (read back as +-inf) and NaN null. Other
    numpy scalars are written as the Python ones, a vector as a list; dicts and
    dataclasses are objects in their order, with names for keys."""
    if isinstance(v, float):
        s = _fmt(v)
        return s if math.isfinite(v) else {"inf": "1e999", "-inf": "-1e999", "nan": "null"}[s]
    if isinstance(v, np.generic):  # after float, the common case; np.longdouble's item() is itself
        return _json(float(v) if isinstance(v, np.floating) else v.item())
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, list):
        return "[" + ",".join(map(_json, v)) + "]"
    if v is None:
        return "null"
    if isinstance(v, str):
        return encode_basestring_ascii(v)  # json.dumps's rule, without its dispatch
    if isinstance(v, int):
        return str(v)
    if is_dataclass(v):
        v = vars(v)  # its fields, which __init__ sets in declaration order
    return "{" + ",".join([f'"{k}":{_json(x)}' for k, x in v.items()]) + "}"  # a name needs no escape


def _checked(rows, lines) -> np.ndarray:
    """The parsed rows as an array whose entries are finite and nonnegative,
    tested at once; else the first entry in reading order that is not, at its
    line (lines[i] for row i) and column."""
    a = np.array(rows, dtype=np.float64)
    if not (a.min() >= 0 and a.max() < np.inf):  # NaN fails both
        i, j = np.argwhere(~((a >= 0) & (a < np.inf)))[0]
        v = float(a[i, j])
        kind = "negative" if -np.inf < v < 0 else "not finite"
        raise ValidationError(f"entry is {kind}: {v!r}", line=lines[i], column=int(j) + 1)
    return a


def _parse_csv(text: str) -> Matrix:
    rows = []
    row_lines = []
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        if raw.strip() == "":
            continue
        values = []
        for col, token in enumerate(raw.split(","), start=1):
            tok = token.strip()
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(f"line {lineno}, field {col}: not a number: {tok!r}",
                                 line=lineno, column=col) from None
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
    a = _checked(rows, row_lines)
    if len(rows) != width:
        raise ValidationError(
            f"expected a square matrix, got {len(rows)} rows of {width} values",
            line=row_lines[-1],
        )
    return Matrix(a)


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
            try:
                values.append(float(v))
            except OverflowError:  # an integer beyond the double range, as 1e400 reads inf
                values.append(np.inf if v > 0 else -np.inf)
        data.append(values)
    return Matrix(_checked(data, range(1, n + 1)))


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
    m = _entries(M, checked=True)
    rows = (",".join(map(_fmt, row)) for row in m)  # finite entries, which _json writes by _fmt
    if fmt == "csv":
        return "\n".join(rows) + "\n"
    return f'{{"n":{m.shape[0]},"rows":[[' + "],[".join(rows) + "]]}\n"


def emit_classification(cls: Classification) -> str:
    return _json(cls) + "\n"


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
    doc = {"x": xs, "residual": result.residual, "iterations": result.iterations,
           "method": result.method_used, "converged": result.converged,
           "classification": result.classification,
           "row_sums": None if matrix is None else certify(matrix, result.x).row_sums}
    if trace is not None:
        doc["trace"] = trace
    return _json(doc) + "\n"
