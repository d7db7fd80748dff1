"""Certify how close diag(x)*M*diag(x) is to row-stochastic.

The three defects are the three equivalent characterizations of a solution:
Mx equals the element-wise inverse of x, the sandwiched matrix has unit row
sums, and every row of the quadratic system is satisfied. They degrade
differently under rounding, so all three are reported rather than one flag.
Each is computed from M and x directly; overflows give inf, or NaN where two meet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _as_vector_array, as_matrix, as_positive_vector


@dataclass(frozen=True)
class StochasticCertificate:
    row_sums: np.ndarray
    max_row_sum_defect: float
    eq2_defect: float
    inverse_defect: float


def certify(M, x) -> StochasticCertificate:
    m = as_matrix(M).entries
    v = _as_vector_array(as_positive_vector(x).values, m.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        sandwich = v[:, None] * m  # diag(x) M diag(x) in one n x n buffer
        row_sums = np.multiply(sandwich, v, out=sandwich).sum(axis=1)
        mx = m.dot(v)
        return StochasticCertificate(
            row_sums=row_sums,
            max_row_sum_defect=float(np.max(np.abs(row_sums - 1.0))),
            eq2_defect=float(np.abs(v * mx - 1.0).max()),
            inverse_defect=float(np.max(np.abs(mx - 1.0 / v))),
        )
