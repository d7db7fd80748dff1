import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import TRIANGULAR_X
from helpers import wide_range_draws
from inversepoint import (
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


def test_parse_csv_rejects_non_square():
    with pytest.raises(ValidationError):
        parse_matrix("1,2\n3,4\n5,6\n")


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


def test_float_formatting_round_trips():
    rng = np.random.default_rng(62)
    from inversepoint.io import _fmt

    for _ in range(500):
        v = float(np.exp(rng.uniform(-300, 300)) * rng.choice([1, -1]))
        assert float(_fmt(v)) == v


def test_every_failed_wide_range_result_emits_parseable_json():
    # JSON has no inf or NaN: emit_result writes them as +-1e999 and null.
    # Among these 67 failed results, 27 have a certificate or residual that
    # overflows.
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
    assert emitted == 67


def test_emit_result_json_writes_non_finite_numbers_as_json():
    res = replace(solve(Matrix([[1.0]])), residual=np.nan, trace=np.array([np.inf, -np.inf, 0.5]))
    out = emit_result(res, "json", include_trace=True)
    assert '"residual":null' in out and '"trace":[1e999,-1e999,0.5]' in out
    assert json.loads(out)["trace"] == [np.inf, -np.inf, 0.5]
