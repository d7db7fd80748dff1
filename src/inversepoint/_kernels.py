"""Hot numerical kernels with a numba backend and a pure-numpy fallback.

The backend is chosen once at import time. numba is optional (the ``[fast]``
extra); when it imports, the loop implementations below are compiled (and
cached on disk). Set ``INVERSEPOINT_NUMBA=0`` (or ``false``/``off``/``no``; the
value is case-insensitive and whitespace-trimmed) before importing the package
to force the fallback. Without numba, the vectorized numpy twins take over for
the map, residual and Newton-system kernels; the only sequential routine, the
oracle's bisection sweeps, then runs as a plain Python loop. ``BACKEND`` names
the backend in use and ``BACKEND_REASON`` says why it was chosen: ``"numba
imported"``, ``"disabled by INVERSEPOINT_NUMBA=<raw value>"`` or ``"numba not
importable: <ImportError text>"``.

All kernels operate on raw float64 ndarrays and never raise; failure is
reported through sentinel return values that the wrapping modules translate
into package exceptions.
"""

from __future__ import annotations

import os

import numpy as np

ENV_FLAG = "INVERSEPOINT_NUMBA"


def _read_flag() -> bool:
    raw = os.environ.get(ENV_FLAG, "1").strip().lower()
    return raw not in ("0", "false", "off", "no")


NUMBA_ENABLED = _read_flag()
if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError as exc:  # numba is the optional [fast] extra
        NUMBA_ENABLED = False
        BACKEND_REASON = f"numba not importable: {exc}"
    else:
        BACKEND_REASON = "numba imported"
else:
    BACKEND_REASON = f"disabled by {ENV_FLAG}={os.environ[ENV_FLAG]}"

if not NUMBA_ENABLED:
    def njit(*args, **kwargs):
        """No-op stand-in so the loop kernels stay importable without numba."""
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def decorate(func):
            return func

        return decorate


BACKEND = "numba" if NUMBA_ENABLED else "numpy"


@njit(cache=True)
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


@njit(cache=True)
def f_apply_loop(m, x, out) -> int:
    """Apply the per-row root update: out_i = root of row i given the other
    coordinates of x. Returns -1, or the first row where the root is undefined
    (zero diagonal and zero off-diagonal contribution)."""
    n = m.shape[0]
    for i in range(n):
        b = 0.0
        for j in range(n):
            if j != i:
                b += m[i, j] * x[j]
        mii = m[i, i]
        if mii == 0.0:
            if b <= 0.0:
                return i
            out[i] = 1.0 / b
        else:
            out[i] = 2.0 / (b + np.sqrt(b * b + 4.0 * mii))
    return -1


def f_apply_numpy(m, x, out) -> int:
    d = np.diagonal(m)
    b = m @ x - d * x
    bad = (d == 0.0) & (b <= 0.0)
    if bad.any():
        return int(np.nonzero(bad)[0][0])
    # For d == 0 rows this evaluates to 2/(b + |b|) = 1/b, matching the loop.
    out[:] = 2.0 / (b + np.sqrt(b * b + 4.0 * d))
    return -1


@njit(cache=True)
def residual_loop(m, x) -> float:
    """max_i |x_i * (Mx)_i - 1|."""
    n = m.shape[0]
    worst = 0.0
    for i in range(n):
        s = 0.0
        for j in range(n):
            s += m[i, j] * x[j]
        r = abs(x[i] * s - 1.0)
        if r > worst:
            worst = r
    return worst


def residual_numpy(m, x) -> float:
    return float(np.max(np.abs(x * (m @ x) - 1.0)))


@njit(cache=True)
def quad_defect_loop(m, x, out) -> None:
    """out_i = x_i * (Mx)_i - 1, the per-row defect of the quadratic system."""
    n = m.shape[0]
    for i in range(n):
        s = 0.0
        for j in range(n):
            s += m[i, j] * x[j]
        out[i] = x[i] * s - 1.0


def quad_defect_numpy(m, x, out) -> None:
    out[:] = x * (m @ x) - 1.0


@njit(cache=True)
def newton_system_loop(m, x, jac, g) -> None:
    """Fill g with the quadratic defect and jac with its Jacobian
    J_ij = x_i*m_ij + delta_ij*(Mx)_i."""
    n = m.shape[0]
    for i in range(n):
        s = 0.0
        for j in range(n):
            s += m[i, j] * x[j]
            jac[i, j] = x[i] * m[i, j]
        jac[i, i] += s
        g[i] = x[i] * s - 1.0


def newton_system_numpy(m, x, jac, g) -> None:
    mx = m @ x
    g[:] = x * mx - 1.0
    jac[:] = x[:, None] * m
    idx = np.arange(m.shape[0])
    jac[idx, idx] += mx


@njit(cache=True)
def oracle_sweeps(m, x, tol, max_sweeps):
    """Coordinate-descent solve used only as an independent test oracle.

    Sweeps i = 0..n-1 in order, setting x_i to the positive root of row i's
    scalar quadratic found by bisection on [1e-12, 1e6]; deliberately avoids
    the closed-form root the solver path uses. Updates x in place.

    Returns (status, sweeps): status 0 converged, 1 sweep budget exhausted,
    2 bisection bracket failed (no sign change on the interval).
    """
    n = m.shape[0]
    for sweep in range(max_sweeps):
        for i in range(n):
            b = 0.0
            for j in range(n):
                if j != i:
                    b += m[i, j] * x[j]
            mii = m[i, i]
            lo = 1e-12
            hi = 1e6
            glo = mii * lo * lo + b * lo - 1.0
            ghi = mii * hi * hi + b * hi - 1.0
            if glo > 0.0 or ghi < 0.0:
                return 2, sweep
            while hi - lo > 1e-15 * (1.0 + lo):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                if mii * mid * mid + b * mid - 1.0 > 0.0:
                    hi = mid
                else:
                    lo = mid
            x[i] = 0.5 * (lo + hi)
        # Residual computed inline to keep this module free of solver code.
        worst = 0.0
        for i in range(n):
            s = 0.0
            for j in range(n):
                s += m[i, j] * x[j]
            r = abs(x[i] * s - 1.0)
            if r > worst:
                worst = r
        if worst <= tol:
            return 0, sweep + 1
    return 1, max_sweeps


if NUMBA_ENABLED:
    f_apply = f_apply_loop
    residual_inf = residual_loop
    quad_defect = quad_defect_loop
    newton_system = newton_system_loop
else:
    f_apply = f_apply_numpy
    residual_inf = residual_numpy
    quad_defect = quad_defect_numpy
    newton_system = newton_system_numpy
