"""Reference checks for the numpy kernels: each one against the formula it
implements, written out row by row."""

import numpy as np
import pytest

import inversepoint as ip
from inversepoint import _kernels


def _random_system(rng, n):
    m = rng.uniform(0, 2, (n, n))
    m[np.diag_indices(n)] += 0.1
    x = rng.uniform(0.05, 3.0, n)
    return m, x


def _defect_by_rows(m, x):
    n = m.shape[0]
    return np.array([x[i] * sum(m[i, j] * x[j] for j in range(n)) - 1.0 for i in range(n)])


def test_backend_is_numpy():
    assert ip.BACKEND == "numpy"


# Vectors whose max and min the helpers must return bitwise: one element,
# ties, NaN first, last or twice, +-inf, signed zeros that do not tie.
REDUCED = [
    [3.0],
    [1.0, 2.0, 2.0, -1.0, -1.0],
    [np.nan, 1.0, 2.0],
    [1.0, 2.0, np.nan],
    [1.0, np.nan, -np.inf, np.nan],
    [np.inf, 1.0, 1.0],
    [-np.inf, 1.0],
    [1.0, np.inf, -np.inf],
    [5e-324, 0.0, 1e308],
    [-0.0, 2.0],
    [2.0, 2.0, 2.0],
]


@pytest.mark.parametrize("v", REDUCED, ids=str)
def test_vmax_and_vmin_are_max_and_min_bitwise(v):
    a = np.array(v)
    for helper, reduction in ((_kernels.vmax, a.max), (_kernels.vmin, a.min)):
        got, want = helper(a), reduction()
        assert type(got) is type(want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("v", [[True], [False], [False, True], [True, False, True], [False] * 3, [True] * 3], ids=str)
def test_vmax_and_vmin_are_any_and_all_on_bool(v):
    b = np.array(v)
    assert type(_kernels.vmax(b)) is np.bool_ and _kernels.vmax(b) == b.any()
    assert type(_kernels.vmin(b)) is np.bool_ and _kernels.vmin(b) == b.all()


def test_positive_root_satisfies_quadratic():
    rng = np.random.default_rng(0)
    for _ in range(200):
        mii = rng.uniform(0, 4) * rng.integers(0, 2)  # half the cases zero
        b = rng.uniform(0.01, 50.0)
        t = _kernels.positive_root(mii, b)
        assert t > 0
        assert abs(mii * t * t + b * t - 1.0) <= 1e-12 * (1.0 + b + mii)


@pytest.mark.parametrize("d", [0.0, 1.0, 1e300])
@pytest.mark.parametrize("b", [1e308, np.finfo(float).max])
def test_positive_root_of_the_largest_b_is_1_over_b(d, b):
    # b + hypot(b, ...) overflowed past ~9e307, and the root read 0.
    t = _kernels.positive_root(d, b)
    assert abs(t * b - 1.0) <= 4e-16


def test_f_apply_matches_per_row_positive_root():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m, x = _random_system(rng, n)
        if n > 1:
            m[0, 0] = 0.0  # one zero diagonal: the root is 1/b
        expected = np.array(
            [_kernels.positive_root(m[i, i], m[i] @ x - m[i, i] * x[i]) for i in range(n)]
        )
        out = _kernels.f_apply(m, x)
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_f_apply_returns_first_undefined_row():
    # Rows 1 and 2 have a zero diagonal and b = 0; row 0 is defined.
    m = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    x = np.array([0.0, 1.0, 1.0])
    with pytest.raises(ip.ZeroRowError) as err:
        _kernels.f_apply(m, x)
    assert err.value.row == 1


def test_f_apply_survives_overflow_of_b_squared():
    # b = 1e200 on a zero diagonal: b * b overflows, the root is 1/b.
    m = np.array([[0.0, 1e200], [1e200, 0.0]])
    out = _kernels.f_apply(m, np.ones(2))
    assert np.allclose(out * 1e200, 1.0, rtol=1e-15, atol=0.0)


def test_f_apply_survives_underflow_of_b_squared():
    # b = 1e-200 on a zero diagonal: b * b underflows to 0, the root is 1/b.
    m = np.array([[0.0, 1e-200], [1e-200, 0.0]])
    out = _kernels.f_apply(m, np.ones(2))
    assert np.array_equal(out, 1.0 / m[0, 1] * np.ones(2))


def test_quad_defect_and_residual_match_written_out_sum():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m, x = _random_system(rng, n)
        expected = _defect_by_rows(m, x)
        out, mx = _kernels.quad_defect(m, x)
        assert np.array_equal(mx, m @ x)
        assert np.max(np.abs(out - expected)) <= 1e-13 * (1.0 + np.max(np.abs(expected)))
        worst = np.max(np.abs(expected))
        assert abs(_kernels.residual_inf(m, x) - worst) <= 1e-13 * (1.0 + worst)


def test_newton_system_is_defect_and_its_jacobian():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        m, x = _random_system(rng, n)
        jac = _kernels.newton_system(m, x, m @ x)

        fd = np.empty((n, n))
        for j in range(n):
            h = 1e-6 * x[j]
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            g_up, _ = _kernels.quad_defect(m, up)
            g_down, _ = _kernels.quad_defect(m, down)
            fd[:, j] = (g_up - g_down) / (2.0 * h)
        assert np.max(np.abs(jac - fd)) <= 1e-7 * np.max(np.abs(jac))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 64, 130])
def test_gauss_solve_is_numpy_linalg_solve_bitwise(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        a, b = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, n)
        assert _kernels.gauss_solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()


def test_gauss_solve_signals_a_singular_matrix_by_the_invalid_flag():
    # An exactly zero pivot: np.linalg.solve raises LinAlgError here.
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with np.errstate(invalid="ignore"):
        s = _kernels.gauss_solve(a, np.ones(2))
    assert not np.isfinite(s).any()
    # The kernel sets no errstate of its own: the caller's decides.
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        _kernels.gauss_solve(a, np.ones(2))


def _log_jacobian(m, x):
    """I + diag(1/Mx) M diag(x), written out."""
    return np.eye(x.size) + m * x[None, :] / (m @ x)[:, None]


@pytest.mark.parametrize("eta", [0.5, 1e-4, 1e-10])
def test_krylov_step_reaches_its_relative_residual(eta):
    rng = np.random.default_rng(4)
    for n in (1, 5, 60):
        m, x = _random_system(rng, n)
        g = rng.uniform(-0.1, 0.1, n)
        s = _kernels.krylov_step(m, x, m @ x, g, eta, 40)
        jac = _log_jacobian(m, x)
        assert np.linalg.norm(jac @ s + g) <= eta * np.linalg.norm(g) * (1.0 + 1e-12)
        if eta == 1e-10:
            exact = np.linalg.solve(jac, -g)
            assert np.max(np.abs(s - exact)) <= 1e-9 * np.max(np.abs(exact))


def test_krylov_step_gives_up_after_maxit():
    # One iteration cannot reach 1e-12 on a random 60 x 60 system.
    rng = np.random.default_rng(5)
    m, x = _random_system(rng, 60)
    g = rng.uniform(-0.1, 0.1, 60)
    assert _kernels.krylov_step(m, x, m @ x, g, 1e-12, 1) is None
    assert _kernels.krylov_step(m, x, m @ x, g, 1e-12, 40) is not None


def test_krylov_step_returns_none_on_breakdown():
    # Here the operator is [[1, 1], [1, 1]], singular with range (1, 1). From
    # g = (1, 0) the least-squares residual stays at 1/sqrt(2) > eta, and the
    # second Arnoldi step leaves a singular Hessenberg matrix.
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert _kernels.krylov_step(m, np.ones(2), np.ones(2), np.array([1.0, 0.0]), 0.5, 40) is None
    # A product that is not finite breaks the process down the same way.
    assert _kernels.krylov_step(m, np.ones(2), np.ones(2), np.array([np.nan, 0.0]), 0.5, 40) is None
