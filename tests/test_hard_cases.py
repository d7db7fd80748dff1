"""Hard inputs: extreme scales, weak diagonals, a large dense matrix and the
edges of the floating-point range. Each is checked against a closed form: the
scale law x(cM) = x(M)/sqrt(c), exact in floating point when c is a power of
four, or x = 1/sqrt(rowsum) for a symmetric M with constant row sums."""

import numpy as np
import pytest

from helpers import random_contraction, random_positive_diagonal
from inversepoint import ConvergenceError, Matrix, SolverConfig, solve
from test_solver import check_converged_invariants


def _zero_diagonal(rng, n):
    # Symmetric, zero diagonal, off-diagonal entries U(0.05, 1).
    a = rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(a, 0.0)
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
@pytest.mark.parametrize("n", range(3, 9))
def test_zero_diagonal_at_extreme_scales(n, scale):
    base = _zero_diagonal(np.random.default_rng([5, n]), n)
    expected = solve(base).x.values / np.sqrt(scale)
    m = Matrix(base * scale)
    res = solve(m)
    check_converged_invariants(m, res)
    assert np.max(np.abs(res.x.values / expected - 1.0)) <= 1e-12


@pytest.mark.parametrize("r, iterations", [(1e-4, 0), (1e-8, 0), (1e-12, 0)])
def test_weak_diagonal_two_cycle(r, iterations):
    # Constant row sums 1 + r: the start 1/sqrt(rowsum) is the solution.
    m = Matrix([[r, 1.0], [1.0, r]])
    res = solve(m)
    check_converged_invariants(m, res)
    assert (res.method_used, res.iterations) == ("newton", iterations)
    assert np.max(np.abs(res.x.values - (1.0 + r) ** -0.5)) <= 1e-15


def test_weak_diagonal_at_large_scale():
    # Constant row sums, so auto's start is the solution. In double precision
    # every (t, 1e-8/t) near it meets tol, so the residual alone cannot pin x.
    res = solve(Matrix([[1e-8, 1e8], [1e8, 1e-8]]))
    assert res.converged
    assert np.max(np.abs(res.x.values / 1e-4 - 1.0)) <= 1e-15


# classify forms 2*m_ii, which overflows here and warns.
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3, 50])
def test_entries_near_the_overflow_threshold(n):
    # rowsum(M) overflows, so auto takes its start 1/sqrt(rowsum) on the
    # normalised matrix.
    c = 1.7e308
    res = solve(np.full((n, n), c))
    assert res.converged and res.residual <= 1e-12
    assert np.max(np.abs(res.x.values * np.sqrt(n) * np.sqrt(c) - 1.0)) <= 1e-15


def test_entry_lost_to_the_normalisation_falls_back():
    # Divided by about 1e300, the entry 1e-13 becomes subnormal and keeps only
    # a few bits: Newton meets tol on the normalised matrix but not on M, and
    # says so; auto then falls back to the contraction iteration on M itself.
    m = np.diag([1e300, 1e-13])
    with pytest.raises(ConvergenceError, match="on the normalised matrix"):
        solve(m, SolverConfig(method="newton"))
    res = solve(m)
    assert (res.method_used, res.iterations) == ("contraction", 0)
    assert np.max(np.abs(res.x.values * np.sqrt(np.diag(m)) - 1.0)) <= 1e-15


def test_newton_from_all_ones_on_tiny_entries_fails_honestly():
    # From all-ones, x*(Mx) = 2e-300 rounds the quadratic defect to -1 and the
    # log defect to -inf: no step is defined, and the error says so.
    with pytest.raises(ConvergenceError, match="start point is too far off") as err:
        solve(np.full((2, 2), 1e-300), SolverConfig(method="newton"))
    assert not err.value.result.converged


def _scale_law_inputs():
    rng = np.random.default_rng(11)
    out = []
    for _ in range(4):
        n = int(rng.integers(2, 9))
        out += [random_contraction(rng, n), random_positive_diagonal(rng, n), Matrix(_zero_diagonal(rng, n))]
    return out


@pytest.mark.parametrize("j", [-400, -3, 1, 7, 400])
def test_power_of_four_scale_law_is_bitwise(j):
    for m in _scale_law_inputs():
        x = solve(m).x.values
        scaled = solve(Matrix(np.ldexp(m.entries, 2 * j)))
        assert np.array_equal(scaled.x.values, np.ldexp(x, -j))


def test_dense_n400_weak_diagonal():
    # Off-diagonal U(0, 1), diagonal U(0.05, 0.3): at this size the bracket
    # iteration runs out of its 10000-round budget.
    rng = np.random.default_rng(400)
    a = rng.uniform(0.0, 1.0, (400, 400))
    np.fill_diagonal(a, rng.uniform(0.05, 0.3, 400))
    res = solve(a)
    check_converged_invariants(Matrix(a), res)
    assert (res.method_used, res.iterations) == ("newton", 3)
    assert np.array_equal(solve(4.0 * a).x.values, np.ldexp(res.x.values, -1))
