"""Hard inputs: extreme scales, weak diagonals, a large dense matrix and the
edges of the floating-point range. Each is checked against a closed form: the
scale law x(cM) = x(M)/sqrt(c), exact in floating point when c is a power of
four, or x = 1/sqrt(rowsum) for a symmetric M with constant row sums."""

import numpy as np
import pytest

from helpers import (
    OUT_OF_RANGE_DRAWS,
    SUBNORMAL_DRAWS,
    default_start,
    random_contraction,
    random_positive_diagonal,
    wide_range_draws,
)
from inversepoint import ConvergenceError, Matrix, SolverConfig, residual, solve, solve_newton
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


@pytest.mark.xfail(
    strict=True,
    reason="the bracket stalls and its Newton hand-off reports converged at "
    "x ~ (2.03e-4, 4.93e-5), 2x off: every (t, 1e-8/t) near the solution meets "
    "tol in double precision, and nothing yet measures the conditioning that "
    "would flag it",
)
def test_bracket_on_weak_diagonal_at_large_scale_is_right_or_fails():
    m = Matrix([[1e-8, 1e8], [1e8, 1e-8]])
    try:
        res = solve(m, SolverConfig(method="bracket"))
    except ConvergenceError:
        return
    assert np.max(np.abs(res.x.values / 1e-4 - 1.0)) <= 1e-6


@pytest.mark.parametrize("n", [2, 3, 50])
def test_entries_near_the_overflow_threshold(n):
    # Every row sum of M overflows, so the start 1/sqrt(rowsum) is 0 and
    # Newton fails there; on M's balance, every entry 2^(2k) c, the start is
    # the solution.
    c = 1.7e308
    res = solve(np.full((n, n), c))
    assert res.converged and res.residual <= 1e-12
    assert res.classification.contraction_constant == 0.5
    assert np.max(np.abs(res.x.values * np.sqrt(n) * np.sqrt(c) - 1.0)) <= 1e-15


def test_entry_lost_to_the_normalisation_falls_back():
    # Divided by about 1e300, the entry 1e-13 would become subnormal and keep
    # only a few bits. Newton runs on M itself and its start 1/sqrt(rowsum)
    # scales no row sum, so no entry is lost, no fallback is needed, and the
    # start, exact on a diagonal M, meets tol before any sweep pair.
    m = np.diag([1e300, 1e-13])
    for method in ("newton", "auto"):
        res = solve(m, SolverConfig(method=method))
        assert (res.method_used, res.iterations, len(res.trace), res.converged) == ("newton", 0, 1, True)
        assert res.residual == res.trace[-1] <= 2.3e-16
        assert np.array_equal(res.x.values, 1.0 / np.sqrt(np.diag(m)))


@pytest.mark.parametrize("method", ["auto", "newton"])
@pytest.mark.parametrize(
    "m",
    [np.diag([1e300, 1e-300]), np.diag([1e300, 5e-324]), np.array([[1e300, 1e-30], [1e-30, 1e-300]])],
    ids=["diag1e-300", "diag5e-324", "coupled1e-300"],
)
def test_row_sums_600_decades_apart_converge(m, method):
    # M is primitive with a positive diagonal, so the solution exists. A start
    # that divided every row sum by max M would take the small one out of the
    # double range; 1/sqrt(rowsum) is exact on the diagonal inputs.
    res = solve(m, SolverConfig(method=method))
    check_converged_invariants(Matrix(m), res)
    assert res.method_used == "newton"
    if m[0, 1] == 0.0:
        assert np.array_equal(res.x.values, 1.0 / np.sqrt(np.diag(m)))


def test_newton_from_all_ones_on_tiny_entries_fails_honestly():
    # From all-ones, x*(Mx) = 2e-300 rounds the quadratic defect to -1 and the
    # log defect to -inf: no step is defined, and the error says so.
    m = np.full((2, 2), 1e-300)
    with pytest.raises(ConvergenceError, match="start point is too far off") as err:
        solve_newton(m, np.ones(2))
    assert not err.value.result.converged
    # solve starts Newton from 1/sqrt(rowsum), which is the solution here.
    res = solve(m, SolverConfig(method="newton"))
    assert (res.method_used, res.iterations) == ("newton", 0)
    assert res.converged


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


@pytest.mark.parametrize("j", [-20, 20])
def test_bracket_power_of_four_scale_law_is_bitwise(j):
    # The bracket compares box widths only with each other, never with tol,
    # so scaling M by 4^j scales every iterate by 2^-j and changes no decision.
    for m in _scale_law_inputs():
        if not (np.diagonal(m.entries) > 0).all():
            continue
        config = SolverConfig(method="bracket")
        res = solve(m, config)
        scaled = solve(Matrix(np.ldexp(m.entries, 2 * j)), config)
        assert np.array_equal(scaled.x.values, np.ldexp(res.x.values, -j))
        assert (scaled.iterations, scaled.method_used) == (res.iterations, res.method_used)
        assert np.array_equal(scaled.trace, res.trace)


@pytest.mark.parametrize("method", ["auto", "bracket", "newton"])
def test_wide_range_draws_fail_only_numerically(method):
    # Every draw is valid input, so a failure must be a ConvergenceError; a
    # ValidationError here would blame the input for a numerical failure.
    for m in wide_range_draws():
        try:
            res = solve(m, SolverConfig(method=method))
        except ConvergenceError:
            continue
        check_converged_invariants(Matrix(m), res)


# The draws of wide_range_draws() that auto and newton solve: every draw whose
# solution lies in the normal range. Before Newton ran again on M's balance,
# auto solved 70 draws (3 of them through a bracket leg) and newton 62.
WIDE_RANGE_SOLVED = set(range(100)) - set(OUT_OF_RANGE_DRAWS) - set(SUBNORMAL_DRAWS)


@pytest.mark.parametrize("method", ["auto", "newton"])
def test_wide_range_draws_solved_are_pinned(method):
    solved = set()
    for k, m in enumerate(wide_range_draws()):
        try:
            res = solve(m, SolverConfig(method=method))
        except ConvergenceError:
            continue
        assert residual(m, res.x.values) <= 1e-12
        solved.add(k)
    assert solved == WIDE_RANGE_SOLVED


def test_solution_outside_the_double_range_raises_convergence_error():
    # Newton on M's balance finds x = 2^k x' (test_balance checks the pair),
    # but outside the normal range no double holds it exactly, or at all. The
    # error carries no result.
    draws = wide_range_draws()
    for k in OUT_OF_RANGE_DRAWS + SUBNORMAL_DRAWS:
        for method in ("auto", "newton"):
            with pytest.raises(ConvergenceError, match="outside the double range") as err:
                solve(draws[k], SolverConfig(method=method))
            assert err.value.result is None


def test_dense_n400_weak_diagonal():
    # Off-diagonal U(0, 1), diagonal U(0.05, 0.3): at this size the bracket
    # iteration runs out of its 10000-round budget. Auto's swept start meets
    # tol without a Newton step; from the unswept start Newton takes GMRES
    # steps to the same x.
    rng = np.random.default_rng(400)
    a = rng.uniform(0.0, 1.0, (400, 400))
    np.fill_diagonal(a, rng.uniform(0.05, 0.3, 400))
    res = solve(a)
    check_converged_invariants(Matrix(a), res)
    assert (res.method_used, res.iterations, len(res.trace)) == ("newton", 0, 5)
    assert np.array_equal(solve(4.0 * a).x.values, np.ldexp(res.x.values, -1))
    steps = solve_newton(a, default_start(a))
    check_converged_invariants(Matrix(a), steps)
    assert steps.iterations == 3
    assert np.max(np.abs(steps.x.values / res.x.values - 1.0)) <= 1e-11


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_even_cycle_plus_eps_identity_from_off_starts(n, eps):
    # M = P + eps*I for the n-cycle P has row sums 1 + eps, so x = 1/sqrt(1 + eps);
    # auto's start is exact, so Newton starts off it. As eps -> 0 the pattern
    # becomes bipartite and kappa = ||(I + S)^-1|| grows like 0.5/eps: the
    # first-order bound on the relative error of x is kappa * residual.
    m = np.roll(np.eye(n), 1, axis=1) + eps * np.eye(n)
    exact = 1.0 / np.sqrt(1.0 + eps)
    for x0 in (np.linspace(0.5, 2.0, n), 10.0 ** np.random.default_rng([n, 7]).uniform(-1.0, 1.0, n)):
        res = solve_newton(m, x0)
        check_converged_invariants(Matrix(m), res)
        assert np.max(np.abs(res.x.values / exact - 1.0)) <= (0.5 / eps) * res.residual + 1e-14
