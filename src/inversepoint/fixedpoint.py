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
from .core import PositiveVector, _entries, _reals, _vector
from .errors import DimensionError, NonNegativityError, ValidationError, ZeroRowError


@dataclass(frozen=True)
class RowContext:
    """One row of the system: its diagonal entry and the n-1 off-diagonal
    entries in increasing column order."""

    row_index: int
    diagonal: float
    off_diagonal: np.ndarray = field(repr=False)

    def __post_init__(self):
        d, off = _reals(self.diagonal), _reals(self.off_diagonal, copy=True)
        if off.ndim != 1 or d.ndim != 0:
            raise DimensionError(f"off_diagonal must be 1-d and diagonal a scalar, got shapes {off.shape} "
                                 f"and {d.shape}")
        if d < 0 or (off < 0).any():
            raise NonNegativityError(f"row {self.row_index} has negative entries")
        if not np.isfinite(d) or not np.isfinite(off).all():
            raise ValidationError(f"row {self.row_index} has non-finite entries")
        off.setflags(write=False)
        object.__setattr__(self, "off_diagonal", off)
        object.__setattr__(self, "diagonal", float(d))

    @classmethod
    def from_matrix(cls, M, i: int) -> "RowContext":
        m = _entries(M, checked=True)
        if isinstance(i, bool) or not (isinstance(i, (int, np.integer)) and 0 <= i < m.shape[0]):
            raise ValidationError(f"row index must be an integer in [0, {m.shape[0]}), got {i!r}")
        off = np.concatenate([m[i, :i], m[i, i + 1:]])
        return cls(row_index=i, diagonal=float(m[i, i]), off_diagonal=off)


def _point(x, n: int) -> np.ndarray:
    """x as a 1-d array of n finite, nonnegative coordinates."""
    a = _vector(x, n)
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
    off-diagonal contribution, else ZeroRowError identifies the row. M and x
    are finite, so a root that is 0, infinite or NaN comes from a product that
    left the double range: OverflowError.
    """
    m = _entries(M, checked=True)
    if m.min() < 0:
        raise NonNegativityError("the update map is defined for nonnegative matrices only")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fx = _kernels.f_apply(m, _point(x, m.shape[0]))
    if not (_kernels.vmin(fx) > 0 and _kernels.vmax(fx) < np.inf):  # NaN fails both
        raise OverflowError("F(x) leaves the double range")
    return PositiveVector(fx)


def residual(M, x) -> float:
    """Infinity-norm defect of the quadratic system: max_i |x_i*(Mx)_i - 1|,
    infinite where a product overflows (NaN where two overflows meet), with
    no warning."""
    m = _entries(M, checked=True)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_kernels.residual_inf(m, _vector(x, m.shape[0])))
