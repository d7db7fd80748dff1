import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import TRIANGULAR_X, ZERO_DIAG_X
from helpers import wide_range_draws
import inversepoint
from inversepoint import ConvergenceError, InversePointError, ValidationError, ZeroRowError, solve
from inversepoint.cli import _run_curves, build_parser, main
from inversepoint.io import emit_matrix
from inversepoint.solver import METHODS

TRIANGULAR_CSV = "1,0,0\n1,1,0\n1,1,1\n"
ZERO_DIAG_CSV = "0,0,1\n1,0,0\n0,1,1\n"
COUNTEREXAMPLE_CSV = "1,2,2\n2,1,2\n2,2,1\n"
CURVES_2D_CSV = "1,3\n5,2\n"

# Every error class the package exports, its base excepted.
EXPORTED_ERRORS = [
    cls
    for cls in (getattr(inversepoint, name) for name in inversepoint.__all__)
    if isinstance(cls, type) and issubclass(cls, InversePointError) and cls is not InversePointError
]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def child_env():
    """Environment in which a child interpreter imports the same inversepoint
    as this process, also when only pytest's pythonpath setting found it, and
    turns a RuntimeWarning into an error, as pyproject's filterwarnings does
    here."""
    src = str(Path(inversepoint.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_triangular(tmp_path, capsys):
    path = write(tmp_path, "triangular.csv", TRIANGULAR_CSV)
    code, out, err = run_cli(capsys, "solve", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert np.max(np.abs(np.array(payload["x"]) - TRIANGULAR_X)) <= 1e-10
    assert payload["converged"] is True
    assert err == ""


def test_solve_row_sums_600_decades_apart_exit_0(tmp_path, capsys):
    path = write(tmp_path, "spread.csv", "1e300,1e-30\n1e-30,1e-300\n")
    code, out, err = run_cli(capsys, "solve", "--input", path)
    assert (code, err) == (0, "")
    assert '"converged":true' in out


def test_solve_zero_row_exit_1_names_row(tmp_path, capsys):
    path = write(tmp_path, "zerorow.csv", "1,2\n0,0\n")
    code, out, err = run_cli(capsys, "solve", "--input", path)
    assert code == 1
    assert out == ""
    assert "row 1" in err


def test_solve_contraction_precondition_exit_1(tmp_path, capsys):
    path = write(tmp_path, "counterexample.csv", COUNTEREXAMPLE_CSV)
    code, out, err = run_cli(capsys, "solve", "--input", path, "--method", "contraction")
    assert code == 1
    assert "contraction" in err.lower()


def test_solve_non_convergence_exit_2_emits_best(tmp_path, capsys):
    # The bracket needs 66 rounds here.
    path = write(tmp_path, "counterexample.csv", COUNTEREXAMPLE_CSV)
    code, out, err = run_cli(
        capsys, "solve", "--input", path, "--method", "bracket", "--max-iter", "3"
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["converged"] is False
    assert len(payload["x"]) == 3
    assert "error" in err


def test_solve_contraction_budget_exit_2_emits_best(tmp_path, capsys):
    path = write(tmp_path, "triangular.csv", TRIANGULAR_CSV)
    code, out, err = run_cli(
        capsys, "solve", "--input", path, "--method", "contraction", "--max-iter", "1"
    )
    assert code == 2
    payload = json.loads(out)
    assert (payload["method"], payload["iterations"], payload["converged"]) == ("contraction", 1, False)
    assert "budget exhausted" in err


def test_solve_solution_outside_the_double_range_exit_2(tmp_path, capsys):
    # The input is valid (every entry positive), but x ~ (1.37e95, 1.6e-344),
    # which Newton on M's balance finds as 2^k x', has no double
    # representation: a numerical failure with nothing to emit.
    m = wide_range_draws()[25]
    text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in m)
    code, out, err = run_cli(capsys, "solve", "--input", write(tmp_path, "wide.csv", text))
    assert (code, out) == (2, "")
    assert "outside the double range" in err and "2^-1143" in err


def test_solve_best_iterate_whose_certificate_overflows_exit_2(tmp_path, capsys):
    # A finite positive 3x3 on which the bracket's failed best iterate
    # x ~ (9e97, 5e-144, 2e-159) makes diag(x) M diag(x) overflow: infinite
    # defects, not bad input. (Its solution lies outside the double range, so
    # auto fails with no result.)
    path = write(tmp_path, "wide9.csv", emit_matrix(wide_range_draws()[9]))
    code, out, err = run_cli(capsys, "solve", "--input", path, "--method", "bracket")
    assert code == 2
    payload = json.loads(out)
    assert payload["converged"] is False
    assert payload["residual"] == np.inf and payload["row_sums"][0] == np.inf
    assert "stalled" in err


def test_every_exported_error_is_in_exactly_one_family():
    input_faults = {cls.__name__ for cls in EXPORTED_ERRORS if issubclass(cls, ValidationError)}
    numerical = {cls.__name__ for cls in EXPORTED_ERRORS if issubclass(cls, ConvergenceError)}
    assert input_faults == {
        "ContractionPreconditionError",
        "DimensionError",
        "NonNegativityError",
        "NotPrimitiveError",
        "ParseError",
        "ValidationError",
        "ZeroRowError",
    }
    assert numerical == {"ConvergenceError", "OracleDivergenceError", "SingularJacobianError"}
    assert len(EXPORTED_ERRORS) == len(input_faults) + len(numerical)


@pytest.mark.parametrize("cls", EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_family(tmp_path, capsys, monkeypatch, cls):
    error = cls(0) if cls is ZeroRowError else cls("raised by the stub")

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("inversepoint.cli.solve", fail)
    code, out, err = run_cli(capsys, "solve", "--input", write(tmp_path, "tri.csv", TRIANGULAR_CSV))
    assert code == (1 if issubclass(cls, ValidationError) else 2)
    assert out == ""
    assert err == f"error: {error}\n"


def test_solve_singular_jacobian_exit_2_emits_best(tmp_path, capsys):
    # The zero diagonal leaves auto no fallback after Newton, which meets a
    # singular Jacobian at its start (2^-1/2, 1): no sweep lowers its defect.
    path = write(tmp_path, "singular.csv", "0,2\n1,0\n")
    code, out, err = run_cli(capsys, "solve", "--input", path)
    assert code == 2
    payload = json.loads(out)
    assert payload["converged"] is False
    assert payload["x"] == pytest.approx([2.0**-0.5, 1.0], rel=1e-15)
    assert payload["method"] == "newton"
    assert "Jacobian" in err and "singular" in err


def test_solve_newton_singular_jacobian_exit_2(tmp_path, capsys):
    # At the start (2^-1/2, 1) the Jacobian is [[2, 2^1/2], [1, 2^-1/2]],
    # singular like every Jacobian here.
    path = write(tmp_path, "singular.csv", "0,2\n1,0\n")
    code, out, err = run_cli(capsys, "solve", "--input", path, "--method", "newton")
    assert code == 2
    payload = json.loads(out)
    assert payload["converged"] is False
    assert payload["x"] == pytest.approx([2.0**-0.5, 1.0], rel=1e-15)
    assert "Jacobian is singular" in err


@pytest.mark.parametrize("method", METHODS)
def test_every_solver_method_is_a_cli_choice(tmp_path, capsys, method):
    path = write(tmp_path, "tri.csv", TRIANGULAR_CSV)
    code, out, err = run_cli(capsys, "solve", "--input", path, "--method", method.replace("_", "-"))
    assert code == 0
    assert json.loads(out)["method"] == ("newton" if method == "auto" else method)


def test_solve_malformed_input_exit_1(tmp_path, capsys):
    path = write(tmp_path, "bad.csv", "1,2\nx,4\n")
    code, out, err = run_cli(capsys, "solve", "--input", path)
    assert code == 1 and out == ""


def test_solve_missing_file_exit_1(tmp_path, capsys):
    code, out, err = run_cli(capsys, "solve", "--input", str(tmp_path / "nope.csv"))
    assert code == 1 and "cannot read" in err


def test_solve_file_that_is_not_utf8_exit_1(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("1,2\n3,4\xe9\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "solve", "--input", str(path))
    assert code == 1 and out == "" and err.startswith(f"error: cannot read {path}")


@pytest.mark.parametrize("name, fmt, text", [
    ("m.csv", "csv", CURVES_2D_CSV),
    ("m.json", "json", '{"n": 2, "rows": [[1, 3], [5, 2]]}'),
])
def test_solve_file_with_a_byte_order_mark_exit_0(tmp_path, capsys, name, fmt, text):
    plain = run_cli(capsys, "solve", "--input", write(tmp_path, name, text), "--format", fmt)
    path = tmp_path / f"bom-{name}"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert run_cli(capsys, "solve", "--input", str(path), "--format", fmt) == plain
    assert plain[0] == 0


def test_solve_json_integer_beyond_the_double_range_exit_1(tmp_path, capsys):
    path = write(tmp_path, "big.json", '{"n":1,"rows":[[1' + "0" * 400 + "]]}")
    code, out, err = run_cli(capsys, "solve", "--input", path, "--format", "json")
    assert (code, out, err) == (1, "", "error: entry is not finite: inf\n")


def test_solve_json_input_and_tsv_output(tmp_path, capsys):
    path = write(tmp_path, "m.json", '{"n": 2, "rows": [[1, 3], [5, 2]]}')
    code, out, err = run_cli(
        capsys, "solve", "--input", path, "--format", "json", "--output", "tsv"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    expected = solve([[1, 3], [5, 2]]).x.values
    assert float(lines[0].split("\t")[1]) == pytest.approx(expected[0], abs=1e-12)
    assert lines[2].startswith("residual\t")


def test_solve_trace_flag(tmp_path, capsys):
    path = write(tmp_path, "triangular.csv", TRIANGULAR_CSV)
    code, out, _ = run_cli(capsys, "solve", "--input", path, "--trace")
    payload = json.loads(out)
    assert "trace" in payload and payload["trace"][-1] <= 1e-12


def test_check_triangular(tmp_path, capsys):
    path = write(tmp_path, "triangular.csv", TRIANGULAR_CSV)
    code, out, _ = run_cli(capsys, "check", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["primitive"] is False
    assert payload["contraction_condition"] is True
    assert payload["contraction_constant"] == 0.5


def test_check_zero_diag(tmp_path, capsys):
    path = write(tmp_path, "zerodiag.csv", ZERO_DIAG_CSV)
    code, out, _ = run_cli(capsys, "check", "--input", path)
    payload = json.loads(out)
    assert payload["primitive"] is True
    assert payload["positive_diagonal"] is False


def test_check_identity(tmp_path, capsys):
    path = write(tmp_path, "i.csv", "1,0\n0,1\n")
    code, out, _ = run_cli(capsys, "check", "--input", path)
    payload = json.loads(out)
    assert payload["nonnegative"] and payload["positive_diagonal"]
    assert payload["primitive"] is False  # off-diagonal zeros never fill in
    # the 1x1 identity is the identity that satisfies everything at once
    code, out, _ = run_cli(capsys, "check", "--input", write(tmp_path, "one.csv", "1\n"))
    payload = json.loads(out)
    assert all(
        payload[k]
        for k in ("nonnegative", "positive_diagonal", "primitive", "contraction_condition")
    )
    code, out, _ = run_cli(capsys, "check", "--input", write(tmp_path, "j.csv", "1,1\n1,1\n"))
    payload = json.loads(out)
    assert all(
        payload[k]
        for k in ("nonnegative", "positive_diagonal", "primitive", "contraction_condition")
    )


def test_curves_identity_lines(tmp_path, capsys):
    path = write(tmp_path, "i.csv", "1,0\n0,1\n")
    code, out, _ = run_cli(capsys, "curves", "--input", path, "--samples", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "curve_index,x1,x2,skipped"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 20
    for r in rows:
        if r[0] == "1":
            assert float(r[1]) == 1.0  # vertical line x1 = 1
        else:
            assert float(r[2]) == 1.0  # horizontal line x2 = 1
        assert r[3] == "0"


def test_curves_2d_min_distance_near_solution(tmp_path, capsys):
    samples, t_max = 200, 1.5
    path = write(tmp_path, "m.csv", CURVES_2D_CSV)
    code, out, _ = run_cli(
        capsys, "curves", "--input", path, "--samples", str(samples), "--t-max", str(t_max)
    )
    assert code == 0
    lines = out.splitlines()[1:]
    pts = {1: [], 2: []}
    for line in lines:
        idx, x1, x2, skipped = line.split(",")
        assert skipped == "0"
        pts[int(idx)].append((float(x1), float(x2)))
    a = np.array(pts[1])
    b = np.array(pts[2])
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    i, j = np.unravel_index(np.argmin(d), d.shape)
    step = 2 * t_max / samples
    assert d[i, j] <= step
    x = solve([[1, 3], [5, 2]]).x.values
    assert np.max(np.abs(a[i] - x)) <= 2 * step
    assert np.max(np.abs(b[j] - x)) <= 2 * step


def test_curves_3d_solution_on_all_surfaces(tmp_path, capsys):
    path = write(tmp_path, "m.csv", "1,2,2\n1,1,1\n1,3,1\n")
    code, out, _ = run_cli(capsys, "curves", "--input", path, "--samples", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "curve_index,x1,x2,x3,skipped"
    assert len(lines) == 1 + 3 * 30 * 30
    # the solver's solution satisfies each surface's defining equation
    from inversepoint import residual

    assert residual([[1, 2, 2], [1, 1, 1], [1, 3, 1]], solve([[1, 2, 2], [1, 1, 1], [1, 3, 1]]).x.values) <= 1e-12


def test_curves_skipped_flag_for_undefined_rows(tmp_path, capsys):
    # row 0 is (0, 0, 1): f_0 = 1/x3 is fine; row 1 is (1, 0, 0) with zero
    # diagonal and off-diagonal (1, 0): f_1 = 1/x1 fine; make a row undefined
    path = write(tmp_path, "m.csv", "0,0,0\n1,1,0\n1,1,1\n")
    code, out, _ = run_cli(capsys, "curves", "--input", path, "--samples", "5")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    curve1 = [r for r in rows if r[0] == "1"]
    assert all(r[4] == "1" for r in curve1)  # zero row: every sample skipped
    assert all(r[1] == "" for r in curve1)
    assert all(r[4] == "0" for r in rows if r[0] != "1")


def test_curves_skips_a_point_whose_b_overflows(tmp_path, capsys):
    # b = 1e308 * t overflows at t = 5 and 10: no root, as for a zero row.
    path = write(tmp_path, "m.csv", "1,1e308\n1e308,1\n")
    code, out, err = run_cli(capsys, "curves", "--input", path, "--samples", "2", "--t-max", "10")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["curve_index,x1,x2,skipped", "1,,5,1", "1,,10,1", "2,5,,1", "2,10,,1"]


def test_curves_wrong_dimension_exit_1(tmp_path, capsys):
    path = write(tmp_path, "m.csv", "1\n")
    code, _, err = run_cli(capsys, "curves", "--input", path)
    assert code == 1 and "n = 2 or 3" in err


@pytest.mark.parametrize("flags", [["--t-max", "nan"], ["--t-max", "inf"], ["--t-max", "0"], ["--samples", "0"]], ids=str)
def test_curves_rejects_a_bad_sample_grid_exit_1(tmp_path, capsys, flags):
    path = write(tmp_path, "m.csv", CURVES_2D_CSV)
    code, out, err = run_cli(capsys, "curves", "--input", path, *flags)
    assert (code, out, err) == (1, "", "error: --samples must be >= 1 and --t-max positive\n")


def test_curves_grid_beyond_the_double_range_fails_before_any_output(tmp_path, capsys):
    path = write(tmp_path, "m.csv", CURVES_2D_CSV)
    code, out, err = run_cli(capsys, "curves", "--input", path, "--t-max", "1e308")
    assert (code, out, err) == (1, "", "error: coordinates must be finite and nonnegative\n")


def test_curves_argument_errors_are_validation_errors(tmp_path):
    # main's handler is the one path to exit 1.
    square = write(tmp_path, "m.csv", CURVES_2D_CSV)
    one = write(tmp_path, "one.csv", "1\n")
    cases = [
        (["--input", one], "^curves supports n = 2 or 3, got n = 1$"),
        (["--input", square, "--t-max", "nan"], "^--samples must be >= 1 and --t-max positive$"),
    ]
    for argv, message in cases:
        with pytest.raises(ValidationError, match=message):
            _run_curves(build_parser().parse_args(["curves", *argv]))


def test_curves_writes_each_row_as_it_computes_it(tmp_path):
    # 270000 rows of about 40 characters: collected before writing, they
    # peaked at 39.5 MB of Python allocations; streamed, at 0.07 MB.
    args = build_parser().parse_args(["curves", "--input", write(tmp_path, "m.csv", COUNTEREXAMPLE_CSV),
                                      "--samples", "300"])
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert _run_curves(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000


def test_a_reader_that_stops_early_ends_the_run_quietly_with_exit_0(tmp_path):
    # About 1 MB of rows, more than a pipe holds: the writer meets the closed pipe.
    path = write(tmp_path, "m.csv", COUNTEREXAMPLE_CSV)
    argv = [sys.executable, "-m", "inversepoint.cli", "curves", "--input", path, "--samples", "100"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


def test_cli_output_byte_identical_across_runs(tmp_path):
    path = write(tmp_path, "m.csv", CURVES_2D_CSV)
    runs = [
        subprocess.run(
            [sys.executable, "-m", "inversepoint.cli", "solve", "--input", path, "--trace"],
            capture_output=True,
            env=child_env(),
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_console_entry_point_runs(tmp_path):
    path = write(tmp_path, "i.csv", "1,0\n0,1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "inversepoint.cli", "check", "--input", path],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["positive_diagonal"] is True
