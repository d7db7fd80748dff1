"""The swept default start of solve_newton: Sinkhorn pairs
z <- 1/(M(1/(Mz))) from 1/sqrt(rowsum(M)), each kept only where it lowers the
scale-free defect e = max q / min q - 1 of q = z*(Mz), repeated while the last
one cut e by at least SWEEP_MIN_RATE, then one half step z/sqrt(q), kept only
where it lowers max|log defect| below the start's. trace records the start,
then each kept pair (the last one as the residual after the half step), then
each Newton step."""

import numpy as np
import pytest

import inversepoint.solver as solver_module
from helpers import default_start, random_positive_diagonal
from inversepoint import Matrix, SolverConfig, solve, solve_newton
from inversepoint._kernels import residual_inf
from inversepoint.solver import _balanced
from test_hard_cases import _scale_law_inputs
from test_krylov import _near_bipartite
from test_solver import check_converged_invariants


def _pairs(res):
    return len(res.trace) - 1 - res.iterations


def _sweep(a, pairs):
    """(the half step after the given number of Sinkhorn pairs from the
    default start, e after each of those pairs), formed as solve_newton
    forms them."""
    z = default_start(a)
    mz = a @ z
    es = []
    for _ in range(pairs):
        z = 1.0 / (a @ (1.0 / mz))
        mz = a @ z
        q = z * mz
        es.append(q.max() / q.min() - 1.0)
    return z / np.sqrt(z * mz), es


def _with_defect_raised_at_call(monkeypatch, which):
    """Make the which-th _log_defect call report a max|g| above every other."""
    real = solver_module._log_defect
    calls = []

    def raised(m, x):
        d, g, gn, mx = real(m, x)
        calls.append(gn)
        return d, g, (np.inf if len(calls) == which else gn), mx

    monkeypatch.setattr(solver_module, "_log_defect", raised)


def test_refined_point_is_dropped_when_it_does_not_lower_the_defect(monkeypatch, triangular):
    # The first _log_defect call is the half step that closes the sweep.
    # With its defect raised, the pairs are dropped and Newton runs from the
    # start, exactly as from the start given explicitly.
    _with_defect_raised_at_call(monkeypatch, 1)
    res = solve_newton(triangular)
    monkeypatch.undo()
    raw = solve_newton(triangular, default_start(triangular.entries))
    assert _pairs(res) == 0
    assert np.array_equal(res.trace, raw.trace)
    assert res.x.values.tobytes() == raw.x.values.tobytes()
    assert res.iterations == raw.iterations


def test_a_later_pair_that_raises_the_defect_is_not_kept(monkeypatch):
    # Unpatched, this input takes several pairs and no Newton step.
    a = _dense(100)
    assert (solve_newton(a).iterations, _pairs(solve_newton(a))) == (0, 5)
    # With SWEEP_MIN_RATE = 1 every kept pair earns another, and below tol =
    # 5e-16 the pairs go on until one fails to lower e at the rounding level:
    # the eighth. It is not kept, and the half step closes the seventh.
    monkeypatch.setattr(solver_module, "SWEEP_MIN_RATE", 1.0)
    res = solve_newton(a, None, SolverConfig(tol=5e-16))
    monkeypatch.undo()
    es = _sweep(a, 8)[1]
    assert not es[7] < es[6]
    assert (_pairs(res), res.iterations) == (7, 0)
    assert np.array_equal(res.trace[1:-1], es[:6])
    assert res.x.values.tobytes() == _sweep(a, 7)[0].tobytes()
    # With the half step's defect raised, every pair is dropped and Newton
    # runs from the start, exactly as from the start given explicitly.
    _with_defect_raised_at_call(monkeypatch, 1)
    res = solve_newton(a)
    monkeypatch.undo()
    raw = solve_newton(a, default_start(a))
    assert _pairs(res) == 0 and res.iterations >= 1
    assert np.array_equal(res.trace, raw.trace)
    assert res.x.values.tobytes() == raw.x.values.tobytes()


@pytest.mark.parametrize("method", ["auto", "newton"])
def test_subnormal_row_sums_are_swept_to_tol(method):
    # Row sums near 1e-323 put x near 1e161. A half step formed as x/(Mx), of
    # order x^2, overflows there. The pairs form only 1/(Mz), and the half
    # step z/sqrt(q) only a quotient of order 1, so the sweep reaches tol.
    m = [[5e-324, 5e-324], [5e-324, 1e-323]]
    res = solve(m, SolverConfig(method=method))
    check_converged_invariants(Matrix(m), res)
    assert (res.method_used, res.iterations, _pairs(res)) == ("newton", 0, 8)


def test_the_half_step_removes_what_the_pairs_leave():
    # Rows 600 decades apart and barely coupled: S is nearly I, and pairs
    # leave modes with lambda near 1 almost alone (the spread is still above
    # 1e57 after six). The sweep stops after two pairs, which cut e only 3x,
    # and the half step brings the residual to 0.2; one Newton step is left.
    a = np.array([[1e300, 1e-30], [1e-30, 1e-300]])
    assert _sweep(a, 6)[1][-1] > 1e57
    res = solve(a)
    check_converged_invariants(Matrix(a), res)
    assert (res.iterations, _pairs(res)) == (1, 2) and res.trace[2] < 0.21


def test_explicit_start_is_never_refined(triangular):
    x0 = default_start(triangular.entries)
    res = solve_newton(triangular, x0)
    assert res.trace[0] == residual_inf(triangular.entries, x0)
    assert _pairs(res) == 0
    swept = solve_newton(triangular)
    assert _pairs(swept) >= 1 and swept.trace[0] == res.trace[0] > swept.trace[_pairs(swept)]


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
    assert (res.method_used, res.iterations, _pairs(res), res.converged) == ("newton", 0, 0, True)
    assert res.x.values.tobytes() == default_start(m).tobytes()


def _dense(n):
    rng = np.random.default_rng(n)
    a = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(a, rng.uniform(0.05, 0.3, n))
    return a


@pytest.mark.parametrize("n", [100])
def test_dense_inputs_are_swept_to_tol_without_a_newton_step(n):
    # |lambda_2(S)| is small on dense inputs, so every pair cuts max|g| by
    # more than SWEEP_MIN_RATE until tol is met. test_hard_cases pins n = 400.
    a = _dense(n)
    res = solve(a)
    assert (res.method_used, res.iterations, res.converged) == ("newton", 0, True)
    assert _pairs(res) >= 3 and res.trace[-1] <= 1e-12
    assert (solver_module.SWEEP_MIN_RATE * res.trace[1:-1] <= res.trace[:-2]).all()


@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_near_bipartite_input_leaves_the_sweeps_within_two_pairs(eps):
    # lambda_2(S) is near -1, where a pair multiplies the error by about
    # (1 - lambda_2)/2 * |lambda_2|, close to 1: Newton takes over at once.
    res = solve(_near_bipartite(200, eps))
    assert res.converged and res.method_used == "newton"
    assert 1 <= _pairs(res) <= 2 and res.iterations >= 3


@pytest.mark.parametrize("j", [-400, -2, 3, 400])
@pytest.mark.parametrize(
    "m", [random_positive_diagonal(np.random.default_rng(5), 5).entries, _dense(400)], ids=["n5", "n400"]
)
def test_power_of_four_scale_law_is_bitwise_with_the_refined_start(m, j):
    res = solve(m)
    assert _pairs(res) >= 1 and res.trace[0] == residual_inf(m, default_start(m))
    scaled = solve(Matrix(np.ldexp(m, 2 * j)))
    assert scaled.iterations == res.iterations
    assert np.array_equal(scaled.trace, res.trace)
    assert np.array_equal(scaled.x.values, np.ldexp(res.x.values, -j))


def _start_by_powers_of_four(m):
    # The start as formed before: 2^-k / sqrt(rowsum(M) / 4^k) with max M / 4^k
    # in [0.5, 2), summing M / 4^k instead where a row sum could overflow.
    # The row sums are products with a vector of ones, as the start takes them.
    top = float(m.max())
    k = int(np.frexp(top)[1]) // 2
    ones = np.ones(m.shape[0])
    if top > np.finfo(np.float64).max / m.shape[0]:
        rows = np.ldexp(m, -2 * k) @ ones
    else:
        rows = np.ldexp(m @ ones, -2 * k)
    return np.ldexp(1.0 / np.sqrt(rows), -k)


@pytest.mark.parametrize("j", [-400, 0, 400])
def test_start_is_bitwise_the_power_of_four_start(j):
    # With tol = inf, solve_newton returns its start unswept. Both starts round
    # the same sum, square root and quotient, up to powers of two, so they
    # agree wherever no intermediate leaves the normal range.
    for mtx in _scale_law_inputs():
        m = np.ldexp(mtx.entries, 2 * j)
        start = solve_newton(m, None, SolverConfig(tol=np.inf)).x.values
        assert start.tobytes() == _start_by_powers_of_four(m).tobytes() == default_start(m).tobytes()


def test_start_of_an_overflowing_row_is_the_start_on_the_balance():
    # Row 0 sums to inf, so 1/sqrt(rowsum(M)) has an entry 0: no result. With
    # tol = inf the pass on M's balance M' returns its own start, unswept, as
    # 2^k / sqrt(rowsum(M')). (Swept, the start on M itself converges.)
    m = np.array([[1.7e308, 1.7e308, 1e300], [1e300, 1e306, 1e300], [1e300, 1e300, 1.7e308]])
    start = solve_newton(m, None, SolverConfig(tol=np.inf)).x.values
    mb, k = _balanced(m)
    assert start.tobytes() == np.ldexp(default_start(mb), k).tobytes()
    check_converged_invariants(Matrix(m), solve(m))
