"""Dense matrix/vector containers and the elementary operations on them.

M enters the package through one reader, _entries: a Matrix's own entries, or
an ndarray read in place, and the solvers carry that ndarray. x enters through
_vector, where PositiveVector's checks start. Finiteness is one test, _finite,
taken once per entry point, so the hot paths can stay check-free.
"""

from __future__ import annotations

import operator

import numpy as np

from ._kernels import vmax, vmin
from .errors import DimensionError, NonNegativityError, ValidationError, ZeroRowError


class Matrix:
    """Immutable dense square matrix of finite 64-bit floats, stored in C order.

    Negative entries are representable (classification reports nonnegativity
    and the solvers reject it); NaN and infinity are not.
    The entries are a copy, so later writes to the argument do not show; C
    order makes every product with M independent of the argument's layout.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = _entries(_reals(entries, copy=True, order="C"), checked=True)
        object.__setattr__(self, "entries", a)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"Matrix({self.entries.tolist()!r})"


def _reals(v, copy=False, order="K") -> np.ndarray:
    """v as a float64 ndarray, a copy if copy is set. ValidationError where numpy
    cannot read v as doubles: ragged, text, an int beyond the double range, or
    complex, which it would cast."""
    try:
        a = np.asarray(v)
        if a.dtype.kind == "c":
            raise TypeError("complex numbers have no real value")
        return (np.array if copy else np.asarray)(a, dtype=np.float64, order=order)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"entries must be real numbers: {err}") from None


def _finite(a) -> bool:
    """True iff every entry of the nonempty a is finite; NaN fails both tests."""
    return bool(a.min() > -np.inf and a.max() < np.inf)


def _entries(M, checked: bool = False) -> np.ndarray:
    """M's entries as a read-only, square, C-order float64 ndarray: a Matrix's
    own, a C-contiguous float64 ndarray through a read-only view of it (no
    n x n copy; the caller's array stays writeable, and the caller must not
    write to it while the result is in use), anything else copied.
    checked=True rejects NaN and infinity, which a Matrix never holds."""
    if isinstance(M, Matrix):
        return M.entries
    a = _reals(M, order="C")
    if a.flags.writeable:
        a = a.view()
        a.setflags(write=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionError(f"expected a square n-by-n array with n >= 1, got shape {a.shape}")
    if checked and not _finite(a):
        raise ValidationError("matrix entries must be finite (no NaN or infinity)")
    return a


class PositiveVector:
    """Immutable vector with strictly positive, finite entries."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = _vector(values, copy=True)
        lo, hi = vmin(v), vmax(v)  # v is a fresh copy, which argmin and argmax do not copy again
        if not (lo > -np.inf and hi < np.inf):  # NaN fails both
            raise ValidationError("vector entries must be finite")
        if not lo > 0:
            raise ValidationError("vector entries must be strictly positive")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __setattr__(self, name, value):
        raise AttributeError("PositiveVector is immutable")

    def __len__(self) -> int:
        return self.values.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"PositiveVector({self.values.tolist()!r})"


def as_positive_vector(v) -> PositiveVector:
    return v if isinstance(v, PositiveVector) else PositiveVector(v)


def _vector(v, n: int | None = None, copy=False) -> np.ndarray:
    """v as a 1-d float64 ndarray through _reals, a copy if copy is set: of
    length n when n is given, else nonempty."""
    a = _reals(v, copy=copy)
    if a.ndim != 1 or (n is None and a.shape[0] == 0):
        raise DimensionError(f"expected a 1-d vector, got shape {a.shape}")
    if n is not None and a.shape[0] != n:
        raise DimensionError(f"vector has length {a.shape[0]}, expected {n}")
    return a


def _count(v, name: str) -> int:
    """v as an int of at least 1; numpy integers pass, 0, NaN, 2.5 and True do not."""
    try:
        k = operator.index(v)
    except TypeError:
        k = 0
    if k < 1 or isinstance(v, bool):
        raise ValidationError(f"{name} must be at least 1 (an integer), got {v!r}")
    return k


def _tol(v):
    """v as a tolerance: positive and not a bool, inf included; NaN fails, as every residual would pass."""
    if isinstance(v, (bool, np.bool_)) or not v > 0:
        raise ValidationError("tol must be positive")
    return v


def _positive(x, n: int) -> np.ndarray:
    """x as the values of a PositiveVector of length n."""
    return _vector(as_positive_vector(x).values, n)


def matvec(M, v) -> np.ndarray:
    """M @ v as a plain ndarray, exact up to float rounding; an entry that
    overflows is infinite or NaN, with no warning."""
    m = _entries(M, checked=True)
    with np.errstate(over="ignore", invalid="ignore"):
        return m @ _vector(v, m.shape[0])


def diag_sandwich(M, x) -> Matrix:
    """diag(x) * M * diag(x): entry (i, j) becomes x_i * m_ij * x_j. M and x
    are finite, so an entry that is not is an overflow: OverflowError. It is
    formed as (x_i * m_ij) * x_j in one n x n buffer, which the result adopts."""
    m = _entries(M, checked=True)
    vals = _positive(x, m.shape[0])
    with np.errstate(over="ignore"):
        sandwich = np.multiply(vals[:, None], m)
        sandwich *= vals
    if not _finite(sandwich):
        raise OverflowError("diag(x) M diag(x) overflows the double range")
    out = object.__new__(Matrix)
    object.__setattr__(out, "entries", _entries(sandwich))
    return out


def inverse_elementwise(v) -> PositiveVector:
    """The vector (1/v_1, ..., 1/v_n). A v_i below about 5.6e-309, 1 over
    the largest double, has no double reciprocal: OverflowError."""
    with np.errstate(over="ignore"):
        inv = 1.0 / as_positive_vector(v).values
    if not vmax(inv) < np.inf:
        raise OverflowError("1/v overflows the double range")
    return PositiveVector(inv)


def validate_solvable(M, cls=None) -> None:
    """Reject matrices on which x_i*(Mx)_i = 1 cannot be posed: negative
    entries or an all-zero row. Given M's Classification as cls, it reads M
    only to name the offending entry or row."""
    if cls is not None and cls.nonnegative and not cls.has_zero_row:
        return
    a = _entries(M)
    if a.min() < 0:
        i, j = np.argwhere(a < 0)[0]
        raise NonNegativityError(f"matrix entry ({i},{j}) is negative: {a[i, j]}")
    zero_rows = np.nonzero(~a.any(axis=1))[0]
    if zero_rows.size:
        i = int(zero_rows[0])
        raise ZeroRowError(i, f"row {i} is entirely zero, so x[{i}]*(Mx)[{i}] = 1 is unsatisfiable")
