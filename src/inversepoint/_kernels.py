"""Hot numerical kernels, vectorized in numpy.

``BACKEND`` names the kernel implementation and is always ``"numpy"``.

The kernels take raw float64 ndarrays, return what they compute and write
to no argument. f_apply raises ZeroRowError where F is undefined.

gauss_solve calls the LAPACK gufunc inside np.linalg.solve without that
wrapper's conversions and errstate, ~3/4 of its cost at n = 5. A singular
matrix gives NaN and the FP invalid flag, which the caller's errstate handles.

vmax and vmin reduce a vector as v[v.argmax()] and v[v.argmin()]: the same
value as v.max() and v.min(), the first NaN included, and on a bool vector
the same as any() and all(). A ufunc reduction spends 1.2-1.6 us on set-up,
an arg-reduction 0.4-0.7 us, and a small solve reduces a vector about twenty
times. Reductions over M's n^2 entries stay ufunc reductions: numpy's
argmin and argmax copy a read-only array first, and the solvers read M
through a read-only view. A solve takes two, both in classify; row sums of M
are a product with a vector of ones, at about a third of the cost. At a tie
of +0.0 and -0.0 the helpers return the first where a ufunc reduction may
return the other; no caller reduces a -0.0.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg._umath_linalg import solve1

from .errors import ZeroRowError

BACKEND = "numpy"


def vmax(v):
    """v.max() of a nonempty vector, or v.any() of a bool one."""
    return v[v.argmax()]


def vmin(v):
    """v.min() of a nonempty vector, or v.all() of a bool one."""
    return v[v.argmin()]


def positive_root(d, b):
    """Unique positive root of d*t**2 + b*t - 1 = 0, elementwise; defined
    where d > 0 or b > 0, which the callers check.

    Uses 1/(h + hypot(h, sqrt(d))), h = b/2, instead of the textbook
    (-b + sqrt(b^2 + 4d))/(2d), which cancels catastrophically for large b.
    hypot forms no b^2 to overflow or underflow, and the halving keeps the
    sum finite up to the largest double b. d = 0 gives 1/b, exactly unless
    b < 2^-1021, where b/2 is subnormal and may round b's last bit.
    """
    h = 0.5 * b
    return 1.0 / (h + np.hypot(h, np.sqrt(d)))


def f_apply(m, x) -> np.ndarray:
    """F(x): row i's positive root given the other coordinates of x. Raises
    ZeroRowError at the first row where it is undefined (zero diagonal and
    zero off-diagonal contribution)."""
    d = m.diagonal()
    b = m.dot(x) - d * x
    bad = (d == 0.0) & (b <= 0.0)
    i = int(bad.argmax())
    if bad[i]:
        raise ZeroRowError(i)
    return positive_root(d, b)


def residual_inf(m, x) -> float:
    """max_i |x_i * (Mx)_i - 1|."""
    return float(vmax(np.abs(x * m.dot(x) - 1.0)))


def quad_defect(m, x) -> tuple[np.ndarray, np.ndarray]:
    """(x*(Mx) - 1, Mx): the per-row defect of the quadratic system and the
    product behind it."""
    mx = m.dot(x)
    return x * mx - 1.0, mx


def newton_system(m, x, mx) -> np.ndarray:
    """The Jacobian J_ij = x_i*m_ij + delta_ij*(Mx)_i of the quadratic defect
    at x, given the product mx = Mx."""
    jac = x[:, None] * m
    jac.reshape(-1)[:: m.shape[0] + 1] += mx
    return jac


def gauss_solve(a, b) -> np.ndarray:
    """a^-1 b for a float64 n x n a and n-vector b, by LAPACK's gesv."""
    return solve1(a, b)


def krylov_step(a, x, ax, g, eta, maxit):
    """GMRES for the log-space Newton step s of (I + diag(1/Ax) A diag(x)) s = -g,
    given the product ax = Ax.

    Matrix-free, one product v -> v + (A(x*v))/(Ax) per iteration; classical
    Gram-Schmidt runs twice and Givens rotations track the residual norm.
    Returns s once that is at most eta * ||g||_2; None when maxit iterations
    do not get there or the Arnoldi process breaks down.
    """
    beta = float(np.sqrt(g @ g))
    v = np.empty((maxit + 1, x.size))
    v[0] = -g / beta
    r = np.zeros((maxit, maxit))
    rot = np.empty((maxit, 2))
    e = np.zeros(maxit + 1)
    e[0] = beta
    for j in range(maxit):
        w = v[j] + a.dot(x * v[j]) / ax
        basis = v[: j + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        h += h2
        hn = float(np.sqrt(w @ w))
        for i in range(j):
            c, sn = rot[i]
            h[i], h[i + 1] = c * h[i] + sn * h[i + 1], c * h[i + 1] - sn * h[i]
        rho = float(np.hypot(h[j], hn))
        if not rho > 0.0:
            return None
        c, sn = rot[j] = h[j] / rho, hn / rho
        r[:j, j], r[j, j] = h[:j], rho
        e[j], e[j + 1] = c * e[j], -sn * e[j]
        if abs(e[j + 1]) <= eta * beta:
            s = np.linalg.solve(r[: j + 1, : j + 1], e[: j + 1]) @ basis
            return s if vmin(np.isfinite(s)) else None
        v[j + 1] = w / hn
    return None
