"""M's exact power-of-two balance M' = P M P, P = diag(2^k), and the fallback
of solve_newton's default start that runs Newton on it: x_i (Mx)_i =
x'_i (M'x')_i for x = P x', so a solution found on M' is M's, up to the
range of x itself."""

import numpy as np
import pytest

from helpers import OUT_OF_RANGE_DRAWS, SUBNORMAL_DRAWS, balanced_pass, wide_range_draws
from inversepoint import Matrix, SolverConfig, residual, solve
from inversepoint.solver import _balanced
from test_solver import check_converged_invariants


def _zero_diagonal_wide_range():
    # Zero diagonal, off-diagonal entries U(0, 1) * 10^U(-300, 300), n = 5:
    # auto's first Newton pass fails, and the pass on the balance solves it.
    rng = np.random.default_rng([7, 3])
    n = int(rng.integers(3, 6))
    a = rng.uniform(0, 1, (n, n)) * 10.0 ** rng.uniform(-300, 300, (n, n))
    np.fill_diagonal(a, 0.0)
    return a


@pytest.mark.parametrize("j", [-3, -1, 1, 3])
def test_balance_obeys_the_power_of_four_law(j):
    # It starts from k = -(max e // 2) and takes integer steps, so 4^j M gets
    # k - j and the same M', bit for bit.
    for m in wide_range_draws():
        mb, k = _balanced(m)
        mb4, k4 = _balanced(np.ldexp(m, 2 * j))
        assert np.array_equal(k4, k - j)
        assert mb4.tobytes() == mb.tobytes()


def test_balance_brings_every_row_maximum_near_one():
    for m in wide_range_draws() + [_zero_diagonal_wide_range()]:
        mb, k = _balanced(m)
        assert np.array_equal(mb, np.ldexp(m, k[:, None] + k))  # exact: every entry of M' is 2^(k_i + k_j) m_ij
        assert (0.25 <= mb.max(axis=1)).all() and (mb.max(axis=1) < 2.0).all()


def test_balance_of_a_diagonal_600_decades_below_the_rest_terminates():
    m = np.array([[1e-300, 1e300], [1e300, 1e-300]])
    mb, k = _balanced(m)
    assert k[0] == k[1] and mb[0, 1] == mb[1, 0] and 0.25 <= mb[0, 1] < 2.0
    res = solve(m)
    check_converged_invariants(Matrix(m), res)
    assert np.max(np.abs(res.x.values / 1e-150 - 1.0)) <= 1e-15
    # The pass on the balance reaches the same x: its diagonal underflows to
    # 0, so M' is a 2-cycle with equal row sums, whose start is its solution.
    fallback, k = balanced_pass(m)
    assert np.max(np.abs(np.ldexp(fallback.x.values, k) / 1e-150 - 1.0)) <= 1e-15


def test_the_zero_mask_of_a_wide_range_input_never_reaches_ldexp(monkeypatch):
    # The zeros are masked out of every row maximum by an exponent of -2^40;
    # ldexp gets frexp's own (0, 0) for them, shifted by k_i + k_j.
    a = _zero_diagonal_wide_range()
    real = np.ldexp
    seen = []

    def spy(f, e):
        seen.append((np.array(f), np.array(e)))
        return real(f, e)

    monkeypatch.setattr(np, "ldexp", spy)
    mb, k = _balanced(a)
    monkeypatch.undo()
    (f, e), = seen
    zero = a == 0.0
    assert np.array_equal(f == 0.0, zero)
    assert np.array_equal(e[zero], (k[:, None] + k)[zero])
    assert np.abs(e).max() < 1 << 12
    assert (mb[zero] == 0.0).all()
    res = solve(a)
    check_converged_invariants(Matrix(a), res)


@pytest.mark.parametrize("method", ["auto", "newton"])
@pytest.mark.parametrize("k", [0, 6, 23, 31, 77, 96])
def test_draws_solved_only_on_the_balance(k, method):
    # Before the balance, auto failed on these draws, whose solution lies in
    # the normal range: the bracket stalled or Newton's start had an
    # infinite log defect.
    m = wide_range_draws()[k]
    res = solve(m, SolverConfig(method=method))
    assert res.converged and res.method_used == "newton"
    assert residual(m, res.x.values) <= 1e-12
    fallback, shift = balanced_pass(m)
    assert res.x.values.tobytes() == np.ldexp(fallback.x.values, shift).tobytes()
    assert np.array_equal(res.trace, fallback.trace) and res.iterations == fallback.iterations
    # Both passes obey the scale law, and so does the balance: x(4^3 M) = x(M) / 2^3.
    scaled = solve(np.ldexp(m, 6), SolverConfig(method=method))
    assert scaled.x.values.tobytes() == np.ldexp(res.x.values, -3).tobytes()


def test_exact_pair_classifies_the_draws():
    # log2 x = k + log2 x' holds for every draw, whatever the range of x: below
    # 2^-1074 an entry is outside the double range, below 2^-1022 subnormal.
    out, subnormal = [], []
    for j, m in enumerate(wide_range_draws()):
        fallback, k = balanced_pass(m)
        assert fallback.converged
        log2 = k + np.log2(fallback.x.values)
        assert log2.max() < 1024
        if log2.min() < -1074:
            out.append(j)
        elif log2.min() < -1022:
            subnormal.append(j)
    assert tuple(out) == OUT_OF_RANGE_DRAWS
    assert tuple(subnormal) == SUBNORMAL_DRAWS
