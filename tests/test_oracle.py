import numpy as np
import pytest

from helpers import random_positive_diagonal
from inversepoint import (
    Matrix,
    OracleDivergenceError,
    ValidationError,
    ZeroRowError,
    oracle_solve,
    residual,
    solve,
)
from inversepoint.oracle import _sweeps


def test_oracle_identity():
    x = oracle_solve(Matrix(np.eye(3)))
    assert np.max(np.abs(x.values - 1.0)) <= 1e-12


def test_oracle_sweeps_converges_on_small_system():
    m = np.array([[1.0, 3.0], [5.0, 2.0]])
    x = np.ones(2)
    sweeps = _sweeps(m, x, 1e-12, 10**6)
    assert 1 <= sweeps < 1000
    assert residual(m, x) <= 1e-12


def test_oracle_certifies_its_own_residual(curves_2d, curves_3d):
    for m in (curves_2d, curves_3d):
        x = oracle_solve(m, tol=1e-12)
        assert residual(m, x.values) <= 1e-12


def test_oracle_agrees_with_solver_on_figure_systems(curves_2d, curves_3d):
    for m in (curves_2d, curves_3d):
        xo = oracle_solve(m)
        xs = solve(m).x.values
        assert np.max(np.abs(xo.values - xs)) <= 1e-8
        assert ((xo.values > 0) & (xo.values < 1)).all()


def test_oracle_agrees_with_solver_on_randoms():
    rng = np.random.default_rng(51)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = random_positive_diagonal(rng, n)
        xo = oracle_solve(m).values
        xs = solve(m).x.values
        assert np.max(np.abs(xo - xs)) <= 1e-8


def test_oracle_rejects_large_n():
    with pytest.raises(ValidationError):
        oracle_solve(Matrix(np.eye(6)))


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
def test_oracle_rejects_a_nonpositive_tol(tol):
    # A NaN tol would run the whole sweep budget before failing.
    with pytest.raises(ValidationError, match="^tol must be positive$"):
        oracle_solve(Matrix(np.eye(2)), tol=tol)


@pytest.mark.parametrize("max_sweeps", [0, float("nan"), 2.5])
def test_oracle_rejects_a_count_that_is_not_a_positive_integer(max_sweeps):
    with pytest.raises(ValidationError, match="^max_sweeps must be at least 1 \\(an integer\\)"):
        oracle_solve(Matrix(np.eye(2)), max_sweeps=max_sweeps)
    assert np.array_equal(oracle_solve(Matrix(np.eye(2)), max_sweeps=np.int64(1)).values, [1.0, 1.0])


def test_oracle_reports_a_spent_sweep_budget():
    m = Matrix([[1.0, 3.0], [5.0, 2.0]])
    with pytest.raises(OracleDivergenceError, match="^coordinate descent did not reach tol=1e-12 within 1 sweeps$"):
        oracle_solve(m, max_sweeps=1)
    x = np.ones(2)
    with pytest.raises(OracleDivergenceError, match="^bisection bracket \\[1e-12, 1e6\\] does not straddle a root after 0 sweeps$"):
        _sweeps(np.array([[1e-15]]), x, 1e-12, 10)


def test_oracle_rejects_zero_row():
    with pytest.raises(ZeroRowError):
        oracle_solve(Matrix([[1.0, 1.0], [0.0, 0.0]]))


def test_oracle_divergence_when_root_outside_bracket():
    # solution is 1/sqrt(1e-15) ~ 3e7, beyond the 1e6 bisection bracket
    with pytest.raises(OracleDivergenceError):
        oracle_solve(Matrix([[1e-15]]))
