"""Hot numerical kernels, vectorized in numpy.

``BACKEND`` names the kernel implementation and is always ``"numpy"``.

All kernels operate on raw float64 ndarrays and never raise; failure is
reported through sentinel return values that the wrapping modules translate
into package exceptions.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def positive_root(mii: float, b: float) -> float:
    """Unique positive root of m*t**2 + b*t - 1 = 0; NaN when m = 0 and b <= 0.

    Uses 2/(b + sqrt(b^2 + 4m)) instead of the textbook (-b + sqrt(...))/(2m),
    which cancels catastrophically for large b. The two are algebraically equal
    and the stable form also reduces to 1/b as m -> 0.
    """
    if mii == 0.0:
        if b <= 0.0:
            return np.nan
        return 1.0 / b
    return 2.0 / (b + np.sqrt(b * b + 4.0 * mii))


def f_apply(m, x, out) -> int:
    """Apply the per-row root update: out_i = root of row i given the other
    coordinates of x. Returns -1, or the first row where the root is undefined
    (zero diagonal and zero off-diagonal contribution)."""
    d = np.diagonal(m)
    b = m @ x - d * x
    bad = (d == 0.0) & (b <= 0.0)
    if bad.any():
        return int(np.nonzero(bad)[0][0])
    # For d == 0 rows this evaluates to 2/(b + |b|) = 1/b.
    out[:] = 2.0 / (b + np.sqrt(b * b + 4.0 * d))
    return -1


def residual_inf(m, x) -> float:
    """max_i |x_i * (Mx)_i - 1|."""
    return float(np.max(np.abs(x * (m @ x) - 1.0)))


def quad_defect(m, x, out) -> None:
    """out_i = x_i * (Mx)_i - 1, the per-row defect of the quadratic system."""
    out[:] = x * (m @ x) - 1.0


def newton_system(m, x, jac, g) -> None:
    """Fill g with the quadratic defect and jac with its Jacobian
    J_ij = x_i*m_ij + delta_ij*(Mx)_i."""
    mx = m @ x
    g[:] = x * mx - 1.0
    jac[:] = x[:, None] * m
    idx = np.arange(m.shape[0])
    jac[idx, idx] += mx
