"""Dense matrix/vector containers and the elementary operations on them.

Everything downstream (classification, the update map, the solvers) consumes
these two immutable types. Validation happens once at construction so the hot
paths can stay check-free.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonNegativityError, ValidationError, ZeroRowError


class Matrix:
    """Immutable dense square matrix of 64-bit floats, stored in C order.

    Entries must be finite. Negative entries are representable (classification
    reports nonnegativity and the solvers reject it); NaN and infinity are not.
    The one exception is _view, with which classify opens: its Matrix holds
    unchecked entries until classify has checked them.
    The entries are a copy, so later writes to the argument do not show; C
    order makes every product with M independent of the argument's layout.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        self._adopt(np.array(entries, dtype=np.float64, order="C"))
        if not np.isfinite(self.entries).all():
            raise ValidationError("matrix entries must be finite (no NaN or infinity)")

    @classmethod
    def _view(cls, entries):
        """classify's entry, and the solvers' prologue: a Matrix as is, a
        C-contiguous float64 ndarray through a read-only view of it (no n x n
        copy; the caller's array stays writeable), anything else copied as by
        Matrix(entries). It checks the shape only; classify checks finiteness
        next, so a solve makes no n x n temporary. The caller must not write
        to the array while the solve runs."""
        if isinstance(entries, cls):
            return entries
        mtx = cls.__new__(cls)
        mtx._adopt(np.asarray(entries, dtype=np.float64, order="C").view())
        return mtx

    def _adopt(self, a):
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise DimensionError(f"expected a square n-by-n array with n >= 1, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def row(self, i: int) -> np.ndarray:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"Matrix({self.entries.tolist()!r})"


class PositiveVector:
    """Immutable vector with strictly positive, finite entries."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.array(values, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] == 0:
            raise DimensionError(f"expected a 1-d vector, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValidationError("vector entries must be finite")
        if not (v > 0).all():
            raise ValidationError("vector entries must be strictly positive")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __setattr__(self, name, value):
        raise AttributeError("PositiveVector is immutable")

    def __len__(self) -> int:
        return self.values.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.values.astype(dtype)
        return self.values

    def __repr__(self) -> str:
        return f"PositiveVector({self.values.tolist()!r})"


def as_matrix(M) -> Matrix:
    """Coerce an array-like (or pass through a Matrix) with full validation."""
    return M if isinstance(M, Matrix) else Matrix(M)


def as_positive_vector(v) -> PositiveVector:
    return v if isinstance(v, PositiveVector) else PositiveVector(v)


def _as_vector_array(v, n: int) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got shape {a.shape}")
    if a.shape[0] != n:
        raise DimensionError(f"vector has length {a.shape[0]}, expected {n}")
    return a


def matvec(M, v) -> np.ndarray:
    """M @ v as a plain ndarray, exact up to float rounding."""
    mtx = as_matrix(M)
    a = _as_vector_array(v, mtx.n)
    return mtx.entries @ a


def diag_sandwich(M, x) -> Matrix:
    """diag(x) * M * diag(x): entry (i, j) becomes x_i * m_ij * x_j."""
    mtx = as_matrix(M)
    vals = _as_vector_array(as_positive_vector(x).values, mtx.n)
    return Matrix(vals[:, None] * mtx.entries * vals[None, :])


def inverse_elementwise(v) -> PositiveVector:
    """The vector (1/v_1, ..., 1/v_n)."""
    xv = as_positive_vector(v)
    return PositiveVector(1.0 / xv.values)


def validate_solvable(M: Matrix, cls=None) -> None:
    """Reject matrices on which x_i*(Mx)_i = 1 cannot be posed: negative
    entries or an all-zero row. Given M's Classification as cls, it reads M
    only to name the offending entry or row."""
    if cls is not None and cls.nonnegative and not cls.has_zero_row:
        return
    a = M.entries
    if a.min() < 0:
        i, j = np.argwhere(a < 0)[0]
        raise NonNegativityError(f"matrix entry ({i},{j}) is negative: {a[i, j]}")
    zero_rows = np.nonzero(~a.any(axis=1))[0]
    if zero_rows.size:
        i = int(zero_rows[0])
        raise ZeroRowError(i, f"row {i} is entirely zero, so x[{i}]*(Mx)[{i}] = 1 is unsatisfiable")
