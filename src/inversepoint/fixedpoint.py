"""Per-row quadratic roots, the coordinate update map, gradients, residual.

Each row i of a nonnegative matrix M turns x_i*(Mx)_i = 1 into a scalar
quadratic m_ii*t^2 + b_i*t - 1 = 0 in t = x_i, where b_i collects the other
coordinates. Its unique positive root, as a function of those coordinates,
is f_i; stacking all n roots gives the map F whose fixed points are exactly
the solutions of the full system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .core import PositiveVector, _as_vector_array, as_matrix
from .errors import DimensionError, NonNegativityError, ValidationError, ZeroRowError


@dataclass(frozen=True)
class RowContext:
    """One row of the system: its diagonal entry and the n-1 off-diagonal
    entries in increasing column order."""

    row_index: int
    diagonal: float
    off_diagonal: np.ndarray = field(repr=False)

    def __post_init__(self):
        off = np.array(self.off_diagonal, dtype=np.float64)
        if off.ndim != 1:
            raise DimensionError(f"off_diagonal must be 1-d, got shape {off.shape}")
        if self.diagonal < 0 or (off < 0).any():
            raise NonNegativityError(f"row {self.row_index} has negative entries")
        if not np.isfinite(self.diagonal) or not np.isfinite(off).all():
            raise ValidationError(f"row {self.row_index} has non-finite entries")
        off.setflags(write=False)
        object.__setattr__(self, "off_diagonal", off)
        object.__setattr__(self, "diagonal", float(self.diagonal))

    @classmethod
    def from_matrix(cls, M, i: int) -> "RowContext":
        mtx = as_matrix(M)
        row = mtx.row(i)
        off = np.concatenate([row[:i], row[i + 1:]])
        return cls(row_index=i, diagonal=float(row[i]), off_diagonal=off)


def _point(x, n: int) -> np.ndarray:
    """x as a 1-d array of n finite, nonnegative coordinates."""
    a = _as_vector_array(x, n)
    if not ((a >= 0.0) & (a < np.inf)).all():
        raise ValidationError("coordinates must be finite and nonnegative")
    return a


def _root(ctx: RowContext, b: float) -> float:
    """The positive root of m_ii*t^2 + b*t - 1 = 0, which needs m_ii > 0 or b > 0."""
    if ctx.diagonal == 0.0 and b <= 0.0:
        raise ZeroRowError(ctx.row_index)
    return float(_kernels.positive_root(ctx.diagonal, b))


def b_value(ctx: RowContext, others) -> float:
    """The x_i coefficient: sum over j != i of m_ij * x_j."""
    return float(np.dot(ctx.off_diagonal, _point(others, ctx.off_diagonal.shape[0])))


def f_value(ctx: RowContext, others) -> float:
    """Unique positive root of m_ii*t^2 + b_i*t - 1 = 0 at the given point."""
    return _root(ctx, b_value(ctx, others))


def f_gradient(ctx: RowContext, others) -> np.ndarray:
    """Gradient of f_i with respect to the other coordinates: -t/(2 m_ii t + b)
    times (m_ij) at the root t, from differentiating m_ii*t^2 + b*t = 1. The
    denominator adds positive terms, so nothing cancels; m_ii = 0 gives -1/b^2.
    Every component is <= 0: raising any other coordinate lowers the root.
    """
    b = b_value(ctx, others)
    t = _root(ctx, b)
    return -t / (2.0 * ctx.diagonal * t + b) * ctx.off_diagonal


def F_map(M, x) -> PositiveVector:
    """Apply every row's root update at once.

    x may contain zeros (the bracket iteration starts at the origin); the
    output is strictly positive. Rows with zero diagonal need a positive
    off-diagonal contribution, else ZeroRowError identifies the row.
    """
    mtx = as_matrix(M)
    if (mtx.entries < 0).any():
        raise NonNegativityError("the update map is defined for nonnegative matrices only")
    a = _point(x, mtx.n)
    out = np.empty(mtx.n)
    bad = _kernels.f_apply(mtx.entries, a, out)
    if bad >= 0:
        raise ZeroRowError(int(bad))
    return PositiveVector(out)


def residual(M, x) -> float:
    """Infinity-norm defect of the quadratic system: max_i |x_i*(Mx)_i - 1|."""
    mtx = as_matrix(M)
    return float(_kernels.residual_inf(mtx.entries, _as_vector_array(x, mtx.n)))
