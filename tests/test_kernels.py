"""Reference checks for the numpy kernels: each one against the formula it
implements, written out row by row."""

import numpy as np

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


def test_positive_root_satisfies_quadratic():
    rng = np.random.default_rng(0)
    for _ in range(200):
        mii = rng.uniform(0, 4) * rng.integers(0, 2)  # half the cases zero
        b = rng.uniform(0.01, 50.0)
        t = _kernels.positive_root(mii, b)
        assert t > 0
        assert abs(mii * t * t + b * t - 1.0) <= 1e-12 * (1.0 + b + mii)
    assert np.isnan(_kernels.positive_root(0.0, 0.0))


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
        out = np.empty(n)
        assert _kernels.f_apply(m, x, out) == -1
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_f_apply_returns_first_undefined_row():
    # Rows 1 and 2 have a zero diagonal and b = 0; row 0 is defined.
    m = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    x = np.array([0.0, 1.0, 1.0])
    assert _kernels.f_apply(m, x, np.empty(3)) == 1


def test_quad_defect_and_residual_match_written_out_sum():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m, x = _random_system(rng, n)
        expected = _defect_by_rows(m, x)
        out = np.empty(n)
        _kernels.quad_defect(m, x, out)
        assert np.max(np.abs(out - expected)) <= 1e-13 * (1.0 + np.max(np.abs(expected)))
        worst = np.max(np.abs(expected))
        assert abs(_kernels.residual_inf(m, x) - worst) <= 1e-13 * (1.0 + worst)


def test_newton_system_is_defect_and_its_jacobian():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        m, x = _random_system(rng, n)
        jac = np.empty((n, n))
        g = np.empty(n)
        _kernels.newton_system(m, x, jac, g)
        defect = np.empty(n)
        _kernels.quad_defect(m, x, defect)
        assert np.array_equal(g, defect)

        fd = np.empty((n, n))
        for j in range(n):
            h = 1e-6 * x[j]
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            g_up, g_down = np.empty(n), np.empty(n)
            _kernels.quad_defect(m, up, g_up)
            _kernels.quad_defect(m, down, g_down)
            fd[:, j] = (g_up - g_down) / (2.0 * h)
        assert np.max(np.abs(jac - fd)) <= 1e-7 * np.max(np.abs(jac))
