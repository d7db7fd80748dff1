"""The refined default start of solve_newton: two Richardson sweeps from
1/sqrt(rowsum(A)), kept only where they lower max|log defect|."""

import numpy as np
import pytest

import inversepoint.solver as solver_module
from helpers import random_positive_diagonal
from inversepoint import Matrix, solve, solve_newton
from inversepoint._kernels import residual_inf
from inversepoint.solver import _normalise


def _raw_start(m):
    a, k = _normalise(np.asarray(m, dtype=np.float64))
    return np.ldexp(1.0 / np.sqrt(a.sum(axis=1)), -k)


def test_refined_point_is_dropped_when_it_does_not_lower_the_defect(monkeypatch, triangular):
    real = solver_module._log_defect
    calls = []

    def second_call_is_worse(a, x, d):
        g, gn = real(a, x, d)
        calls.append(gn)
        return g, (np.inf if len(calls) == 2 else gn)

    monkeypatch.setattr(solver_module, "_log_defect", second_call_is_worse)
    res = solve_newton(triangular)
    monkeypatch.undo()
    raw = solve_newton(triangular, _raw_start(triangular.entries))
    assert np.array_equal(res.trace, raw.trace)
    assert res.x.values.tobytes() == raw.x.values.tobytes()
    assert res.iterations == raw.iterations


def test_explicit_start_is_never_refined(triangular):
    x0 = _raw_start(triangular.entries)
    res = solve_newton(triangular, x0)
    assert res.trace[0] == residual_inf(triangular.entries, x0)
    assert res.trace[0] > solve_newton(triangular).trace[0]


@pytest.mark.parametrize(
    "m",
    [
        np.full((2, 2), 1e300),
        np.full((2, 2), 1e-300),
        np.full((3, 3), 1e300),
        [[1e-8, 1e8], [1e8, 1e-8]],
        [[1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]],
    ],
    ids=["ones2x1e300", "ones2x1e-300", "ones3x1e300", "weak2x2", "counterexample"],
)
def test_exact_starts_take_no_step_and_stay_bitwise(m):
    # Constant row sums: 1/sqrt(rowsum) already meets tol, so no sweep runs.
    res = solve(m)
    assert (res.method_used, res.iterations, res.converged) == ("newton", 0, True)
    assert res.x.values.tobytes() == _raw_start(m).tobytes()


def _dense(n):
    rng = np.random.default_rng(n)
    a = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(a, rng.uniform(0.05, 0.3, n))
    return a


@pytest.mark.parametrize("j", [-400, -2, 3, 400])
@pytest.mark.parametrize(
    "m", [random_positive_diagonal(np.random.default_rng(5), 5).entries, _dense(400)], ids=["n5", "n400"]
)
def test_power_of_four_scale_law_is_bitwise_with_the_refined_start(m, j):
    res = solve(m)
    assert res.trace[0] < residual_inf(m, _raw_start(m))
    scaled = solve(Matrix(np.ldexp(m, 2 * j)))
    assert scaled.iterations == res.iterations
    assert np.array_equal(scaled.x.values, np.ldexp(res.x.values, -j))
