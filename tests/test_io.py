import json
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from conftest import TRIANGULAR_X
from helpers import wide_range_draws
from inversepoint import (
    Classification,
    ConvergenceError,
    Matrix,
    ParseError,
    SolverConfig,
    ValidationError,
    classify,
    emit_classification,
    emit_matrix,
    emit_result,
    parse_matrix,
    solve,
)


def test_parse_csv_triangular(triangular):
    m = parse_matrix("1,0,0\n1,1,0\n1,1,1\n")
    assert np.array_equal(m.entries, triangular.entries)


def test_parse_csv_1x1():
    m = parse_matrix("1\n")
    assert m.n == 1 and m.entries[0, 0] == 1.0


def test_parse_csv_ragged_row():
    with pytest.raises(ParseError) as err:
        parse_matrix("1,2\n3\n")
    assert err.value.line == 2


def test_parse_csv_bad_token_position():
    with pytest.raises(ParseError) as err:
        parse_matrix("1,2\nx,4\n")
    assert err.value.line == 2 and err.value.column == 1


def test_parse_csv_rejects_negative_and_nan():
    with pytest.raises(ValidationError) as err:
        parse_matrix("1,-2\n3,4\n")
    assert err.value.line == 1 and err.value.column == 2
    with pytest.raises(ValidationError):
        parse_matrix("1,nan\n3,4\n")
    with pytest.raises(ValidationError):
        parse_matrix("1,inf\n3,4\n")


def _failure(text, fmt):
    with pytest.raises((ParseError, ValidationError)) as err:
        parse_matrix(text, fmt)
    return type(err.value), str(err.value), err.value.line, err.value.column


@pytest.mark.parametrize(
    "text, want",
    [
        ("1,2\n-3,nan\n", ("negative: -3.0", 2, 1)),
        ("1,nan\n-3,4\n", ("not finite: nan", 1, 2)),
        ("1,-inf\n3,-4\n", ("not finite: -inf", 1, 2)),
        ("\n1, 2\n\n3,  1e400\n", ("not finite: inf", 4, 2)),
        ("1,-0.0\n0,-5e-324\n", ("negative: -5e-324", 2, 2)),
        ("1,2\n3,-4\n5,6\n", ("negative: -4.0", 2, 2)),  # before the shape
        ('{"n": 2, "rows": [[1, 2], [-3, NaN]]}', ("negative: -3.0", 2, 1)),
        ('{"n": 2, "rows": [[1, NaN], [-3, 4]]}', ("not finite: nan", 1, 2)),
        ('{"n": 2, "rows": [[1, -Infinity], [3, -4]]}', ("not finite: -inf", 1, 2)),
        ('{"n": 2, "rows": [[1, -0.0], [0, -5e-324]]}', ("negative: -5e-324", 2, 2)),
    ],
)
def test_parse_names_the_first_bad_entry_in_reading_order(text, want):
    fmt = "json" if text.startswith("{") else "csv"
    assert _failure(text, fmt) == (ValidationError, "entry is " + want[0], *want[1:])


def test_a_parse_or_ragged_row_error_wins_over_an_earlier_bad_entry():
    # Entries are checked once, on the parsed array, after every row is read.
    assert _failure("-1,2\n3,x\n", "csv") == (ParseError, "line 2, field 2: not a number: 'x'", 2, 2)
    assert _failure("-1,2\n3\n", "csv")[:3] == (ParseError, "line 2: ragged row with 1 values, expected 2", 2)
    assert _failure('{"n": 2, "rows": [[-1, 2], [3, "x"]]}', "json") == (
        ValidationError, "row 1, column 1: not a number: 'x'", 2, 2)
    assert _failure('{"n": 2, "rows": [[-1, 2], [3]]}', "json")[:3] == (
        ValidationError, "row 1 must be a list of 2 numbers", 2)


@pytest.mark.parametrize("end", ["\f", "\x85", "\u2028", "\u2029", "\v", "\x1c"], ids=repr)
def test_parse_csv_breaks_lines_only_at_line_ends(end):
    # str.splitlines would also break at these, making one line two rows.
    token = repr("2" + end + "3")
    assert _failure(f"1,2{end}3,4\n", "csv") == (ParseError, f"line 1, field 2: not a number: {token}", 1, 2)
    ragged = "line 3: ragged row with 1 values, expected 2"
    assert _failure(f"1,2\n3,4{end}\n5\n", "csv") == (ParseError, ragged, 3, 1)
    for newline in ("\n", "\r\n", "\r"):
        assert parse_matrix(f"1,2{newline}3,4{newline}").entries.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_parse_csv_rejects_non_square():
    with pytest.raises(ValidationError):
        parse_matrix("1,2\n3,4\n5,6\n")


@pytest.mark.parametrize("sign", ["", "-"])
def test_parse_json_reports_an_integer_beyond_the_double_range_as_1e400(sign):
    # float() of such an integer overflows; the entry reads as the float
    # literal 1e400 does, as an infinity at its row and column.
    big = sign + "1" + "0" * 400
    want = {}
    for entry in (big, sign + "1e400"):
        with pytest.raises(ValidationError) as err:
            parse_matrix(f'{{"n": 2, "rows": [[1, 2], [3, {entry}]]}}', fmt="json")
        want[entry] = (str(err.value), err.value.line, err.value.column)
    assert want[big] == want[sign + "1e400"] == (f"entry is not finite: {sign}inf", 2, 2)


def test_parse_csv_empty():
    with pytest.raises(ParseError):
        parse_matrix("\n\n")


def test_parse_json_ok():
    m = parse_matrix('{"n": 2, "rows": [[1, 2], [3, 4.5]]}', fmt="json")
    assert np.array_equal(m.entries, [[1.0, 2.0], [3.0, 4.5]])


def test_parse_json_malformed():
    with pytest.raises(ParseError) as err:
        parse_matrix('{"n": 2, "rows": [[1, 2], ', fmt="json")
    assert err.value.line is not None


def test_parse_json_structure_errors():
    with pytest.raises(ValidationError):
        parse_matrix('{"rows": [[1]]}', fmt="json")
    with pytest.raises(ValidationError):
        parse_matrix('{"n": 2, "rows": [[1, 2]]}', fmt="json")
    with pytest.raises(ValidationError):
        parse_matrix('{"n": 1, "rows": [[true]]}', fmt="json")
    with pytest.raises(ValidationError):
        parse_matrix('{"n": 1, "rows": [[-3]]}', fmt="json")
    with pytest.raises(ValidationError):
        parse_matrix('{"n": 1, "rows": [[NaN]]}', fmt="json")
    for n in ("0", "-1", "1.0", "true", '"1"'):
        with pytest.raises(ValidationError, match='^"n" must be a positive integer'):
            parse_matrix(f'{{"n": {n}, "rows": [[1]]}}', fmt="json")
    with pytest.raises(ValidationError, match="^row 1 must be a list of 2 numbers$") as err:
        parse_matrix('{"n": 2, "rows": [[1, 2], 3]}', fmt="json")
    assert err.value.line == 2


def test_every_reader_and_writer_rejects_an_unknown_format(triangular):
    res = solve(triangular)
    calls = [
        lambda: parse_matrix("1\n", fmt="tsv"),
        lambda: emit_matrix(triangular, fmt="tsv"),
        lambda: emit_result(res, fmt="csv"),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="^format must be one of"):
            call()


def test_matrix_round_trip_exact_csv_and_json():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = Matrix(np.exp(rng.uniform(-30, 30, (n, n))))
        for fmt in ("csv", "json"):
            back = parse_matrix(emit_matrix(m, fmt), fmt)
            assert np.array_equal(back.entries, m.entries)


def test_emit_result_json_keys_and_values(triangular):
    res = solve(triangular)
    text = emit_result(res, "json", matrix=triangular)
    payload = json.loads(text)
    assert list(payload.keys()) == [
        "x",
        "residual",
        "iterations",
        "method",
        "converged",
        "classification",
        "row_sums",
    ]
    assert abs(payload["x"][0] - 1.0) <= 1e-10
    assert abs(payload["x"][2] - TRIANGULAR_X[2]) <= 1e-10
    assert payload["converged"] is True
    assert payload["method"] == "newton"
    assert payload["classification"]["contraction_constant"] == 0.5
    assert payload["classification"]["primitive"] is False
    assert max(abs(s - 1.0) for s in payload["row_sums"]) <= 1e-10
    assert np.array(payload["x"]) == pytest.approx(res.x.values, abs=0)  # exact round trip


def test_emit_result_without_matrix_has_null_row_sums(triangular):
    payload = json.loads(emit_result(solve(triangular), "json"))
    assert payload["row_sums"] is None


def test_emit_result_trace_key_optional(triangular):
    res = solve(triangular)
    assert "trace" not in json.loads(emit_result(res, "json", matrix=triangular))
    payload = json.loads(emit_result(res, "json", matrix=triangular, include_trace=True))
    assert payload["trace"][-1] <= 1e-12


def test_emit_result_tsv(triangular):
    res = solve(triangular)
    lines = emit_result(res, "tsv").splitlines()
    assert len(lines) == 4
    assert lines[0].split("\t")[0] == "x"
    assert float(lines[0].split("\t")[1]) == res.x.values[0]
    tag, value = lines[3].split("\t")
    assert tag == "residual" and float(value) == res.residual


def test_emit_result_tsv_with_trace(curves_2d):
    res = solve(curves_2d)
    lines = emit_result(res, "tsv", include_trace=True).splitlines()
    assert len(lines) == 3 + len(res.trace)
    assert lines[:3] == emit_result(res, "tsv").splitlines()
    assert [line.split("\t")[0] for line in lines[3:]] == ["trace"] * len(res.trace)
    assert [float(line.split("\t")[1]) for line in lines[3:]] == res.trace.tolist()


def test_emit_result_non_converged_keeps_best_iterate(curves_2d):
    from inversepoint import ConvergenceError, SolverConfig

    with pytest.raises(ConvergenceError) as err:
        solve(curves_2d, SolverConfig(method="newton", max_iter=1))
    payload = json.loads(emit_result(err.value.result, "json", matrix=curves_2d))
    assert payload["converged"] is False
    assert len(payload["x"]) == 2


def test_emit_classification(zero_diag):
    payload = json.loads(emit_classification(classify(zero_diag)))
    assert payload == {
        "nonnegative": True,
        "positive_diagonal": False,
        "primitive": True,
        "contraction_condition": False,
        "contraction_constant": None,
        "has_zero_row": False,
    }


@pytest.mark.parametrize("entries", [[[2.0, 1.0], [3.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]]])
def test_emit_classification_writes_the_fields_in_order_whatever_their_scalar_types(entries):
    cls = classify(Matrix(entries))
    payload = json.loads(emit_classification(cls))
    assert list(payload.items()) == [(f.name, getattr(cls, f.name)) for f in fields(Classification)]
    as_numpy = Classification(**{k: v if v is None else (np.bool_ if isinstance(v, bool) else np.float64)(v)
                                 for k, v in asdict(cls).items()})
    assert type(as_numpy.primitive) is np.bool_
    assert emit_classification(as_numpy) == emit_classification(cls)


def test_float_formatting_round_trips():
    rng = np.random.default_rng(62)
    from inversepoint.io import _fmt

    for _ in range(500):
        v = float(np.exp(rng.uniform(-300, 300)) * rng.choice([1, -1]))
        assert float(_fmt(v)) == v


def test_every_failed_wide_range_result_emits_parseable_json():
    # JSON has no inf or NaN: emit_result writes them as +-1e999 and null.
    # These 15 failed results are the bracket's, and 13 of them have a
    # certificate or residual that overflows. Auto and newton fail on these
    # draws only where x leaves the double range, with no result to emit.
    emitted = 0
    for m in wide_range_draws():
        for method in ("auto", "newton", "bracket"):
            try:
                solve(m, SolverConfig(method=method))
                continue
            except ConvergenceError as err:
                if err.result is None:
                    continue
                payload = json.loads(emit_result(err.result, "json", matrix=m))
            assert payload["converged"] is False
            emitted += 1
    assert emitted == 15


def test_emit_result_json_writes_non_finite_numbers_as_json():
    res = replace(solve(Matrix([[1.0]])), residual=np.nan, trace=np.array([np.inf, -np.inf, 0.5]))
    out = emit_result(res, "json", include_trace=True)
    assert '"residual":null' in out and '"trace":[1e999,-1e999,0.5]' in out
    assert json.loads(out)["trace"] == [np.inf, -np.inf, 0.5]


def test_emit_result_json_writes_numpy_scalars_as_python_numbers():
    res = replace(solve(Matrix([[1.0]])), residual=0.5)
    for residual in (np.float32(0.5), np.longdouble(0.5)):
        as_numpy = replace(res, iterations=np.int64(res.iterations), residual=residual)
        assert emit_result(as_numpy, "json") == emit_result(res, "json")
