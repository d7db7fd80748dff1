"""Independent brute-force solver used to validate the main path in tests.

Deliberately different machinery: a fixed-order coordinate-descent sweep
whose per-row scalar quadratic is solved by bisection, never by the closed
form the solver uses, and whose loops are written out element by element
so that they share no kernel with the solver path. Small n only;
performance is a non-goal.
"""

from __future__ import annotations

import numpy as np

from .core import PositiveVector, _count, _entries, _tol, validate_solvable
from .errors import OracleDivergenceError, ValidationError

MAX_ORACLE_N = 5


def _sweeps(m, x, tol, max_sweeps):
    """Sweep i = 0..n-1 in order, setting x_i to the positive root of row i's
    scalar quadratic found by bisection on [1e-12, 1e6]. Updates x in place
    and returns the number of sweeps that reached tol. OracleDivergenceError
    reports a root outside the bisection interval or a spent budget.
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
                raise OracleDivergenceError(
                    f"bisection bracket [1e-12, 1e6] does not straddle a root after {sweep} sweeps"
                )
            while hi - lo > 1e-15 * (1.0 + lo):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                if mii * mid * mid + b * mid - 1.0 > 0.0:
                    hi = mid
                else:
                    lo = mid
            x[i] = 0.5 * (lo + hi)
        # Residual computed inline to keep the oracle free of solver code.
        worst = 0.0
        for i in range(n):
            s = 0.0
            for j in range(n):
                s += m[i, j] * x[j]
            r = abs(x[i] * s - 1.0)
            if r > worst:
                worst = r
        if worst <= tol:
            return sweep + 1
    raise OracleDivergenceError(f"coordinate descent did not reach tol={tol} within {max_sweeps} sweeps")


def oracle_solve(M, tol: float = 1e-12, max_sweeps: int = 10**6) -> PositiveVector:
    m = _entries(M, checked=True)
    n = m.shape[0]
    if n > MAX_ORACLE_N:
        raise ValidationError(f"oracle supports n <= {MAX_ORACLE_N}, got n = {n}")
    tol = _tol(tol)
    max_sweeps = _count(max_sweeps, "max_sweeps")
    validate_solvable(m)
    x = np.ones(n)
    _sweeps(m, x, tol, max_sweeps)
    return PositiveVector(x)
