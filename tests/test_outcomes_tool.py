"""tools/outcomes.py's comparison, on hand-made outcome lists: no child
interpreter and no corpus."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location("outcomes", Path(__file__).parents[1] / "tools" / "outcomes.py")
outcomes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outcomes)


def _x(*values):
    return np.array(values, dtype=np.float64).tobytes()


def _solved(x, **changed):
    out = {f: None for f in outcomes.FIELDS}
    out.update(x=_x(*x), iterations=3, method="newton", converged=True, json="0" * 64,
               matrix_csv="a" * 64, matrix_json="b" * 64)
    out.update(changed)
    return out


def _failed(**changed):
    out = {f: None for f in outcomes.FIELDS}
    out.update(error="ConvergenceError", text="newton: residual 1e+00 after 1 iterations (budget exhausted)",
               matrix_csv="a" * 64, matrix_json="b" * 64)
    out.update(changed)
    return out


def _run(**per_method):
    """One input, solved by every method: the outcomes given, else _solved([1.0])."""
    return [("in/0", m, per_method.get(m, _solved([1.0]))) for m in outcomes.METHODS]


def test_ulps_counts_the_largest_distance_between_the_vectors():
    one = np.nextafter(1.0, 2.0)
    assert outcomes._ulps(_x(1.0, 2.0), _x(1.0, 2.0)) == 0
    assert outcomes._ulps(_x(1.0, 2.0), _x(one, 2.0)) == 1
    assert outcomes._ulps(_x(1.0, 2.0), _x(np.nextafter(one, 2.0), np.nextafter(2.0, 0.0))) == 2


def test_identical_runs_move_nothing(capsys):
    run = _run(bracket=_failed(), contraction=_failed(row=1, error="ZeroRowError"))
    assert outcomes.compare(run, [tuple(o) for o in run]) == 0
    out = capsys.readouterr().out
    assert out.startswith("4 outcomes: 1 inputs x 4 methods\n")
    assert "converged (parent): auto 1, bracket 0, contraction 0, newton 1\n" in out
    assert out.endswith("bitwise the parent's\n")


def test_every_field_that_differs_counts_as_moved(capsys):
    parent = _run()
    change = _run(auto=_solved([np.nextafter(1.0, 2.0)], json="1" * 64), newton=_failed())
    assert outcomes.compare(parent, change) == 2
    out = capsys.readouterr().out
    table = [line.split() for line in out.splitlines()[1:3 + len(outcomes.FIELDS)]]
    assert table[0] == ["moved", *outcomes.METHODS]
    moved = {row[0]: row[1:] for row in table[1:]}
    assert moved["any"] == moved["x"] == moved["json"] == ["1", "0", "0", "1"]
    assert moved["error"] == moved["text"] == ["0", "0", "0", "1"]
    assert moved["row"] == moved["classification"] == ["0", "0", "0", "0"]
    assert "auto: first moved of 1:\n  in/0 (x, json)\n" in out
    assert "auto: x moved by up to 1 ulps (in/0)\n" in out
    assert "newton: x moved" not in out  # a failure without a result has no x to measure
    assert out.endswith("2 outcomes moved\n")


def test_a_moved_matrix_writer_moves_every_method_of_the_input(capsys):
    parent = _run(bracket=_failed())
    change = [(label, m, {**o, "matrix_json": "c" * 64}) for label, m, o in parent]
    assert outcomes.compare(parent, change) == 4
    out = capsys.readouterr().out
    table = [line.split() for line in out.splitlines()[2:3 + len(outcomes.FIELDS)]]
    moved = {row[0]: row[1:] for row in table}
    assert moved["any"] == moved["matrix_json"] == ["1", "1", "1", "1"]
    assert moved["matrix_csv"] == moved["json"] == moved["error"] == ["0", "0", "0", "0"]
    assert "bracket: first moved of 1:\n  in/0 (matrix_json)\n" in out


def test_runs_over_different_corpora_do_not_compare():
    with pytest.raises(SystemExit, match="different corpora"):
        outcomes.compare(_run(), [("in/1", m, o) for _, m, o in _run()])
