"""Hypothesis checks on the input matrix: the positive diagonal that lets auto
fall back to the bracket, and the certificate the contraction solver needs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import vmax, vmin
from .core import PositiveVector, _count, _entries, _tol
from .errors import ConvergenceError, NonNegativityError, NotPrimitiveError, ValidationError


@dataclass(frozen=True)
class Classification:
    """Which hypotheses the matrix satisfies.

    contraction_constant is max over all pairs (i, j) of m_ij / (2*m_ii);
    taking the max over all pairs (the diagonal pair contributes 1/2) keeps the
    constant in [0.5, 1) exactly when 2*m_ii > m_ij holds for every i, j.
    """

    nonnegative: bool
    positive_diagonal: bool
    primitive: bool
    contraction_condition: bool
    contraction_constant: float | None
    has_zero_row: bool


def _bfs_levels(adj: np.ndarray) -> np.ndarray:
    """Breadth-first distance from node 0 along the edges i -> j where
    adj[i, j] is true; -1 marks a node that cannot be reached. Each node
    enters the frontier once, so the row reads total O(n^2)."""
    n = adj.shape[0]
    level = np.full(n, -1, dtype=np.int32)  # int32 halves the n^2 gcd input
    level[0] = 0
    frontier = level == 0
    reached = depth = 1
    while reached < n:
        frontier = adj[frontier].any(axis=0) & (level < 0)
        found = np.count_nonzero(frontier)
        if not found:
            break
        level[frontier] = depth
        reached += found
        depth += 1
    return level


def _nonnegative(M) -> Classification:
    """classify(M), or NonNegativityError where M has a negative entry."""
    cls = classify(M)
    if not cls.nonnegative:
        raise NonNegativityError("operation requires a nonnegative matrix")
    return cls


def is_primitive(M) -> bool:
    """True iff M is irreducible with period 1, i.e. some power of M is
    positive; see _is_primitive."""
    return _nonnegative(M).primitive


def _is_primitive(a) -> bool:
    """is_primitive on a nonnegative ndarray, without the check or the
    shortcuts for positive a or a complete off-diagonal.

    A graph test on the zero/nonzero pattern (Denardo, Math. Oper. Res. 1977):
    a is irreducible iff a breadth-first search from node 0 reaches every node
    both along the edges i -> j (a_ij > 0) and against them. The period of an
    irreducible pattern is the gcd of level[i] + 1 - level[j] over its edges,
    with level the BFS distance from node 0; a positive diagonal entry is a
    cycle of length 1. For n = 1 this gives primitive iff a_11 > 0.
    """
    pattern = a > 0
    level = _bfs_levels(pattern)
    if (level < 0).any() or (_bfs_levels(pattern.T) < 0).any():
        return False
    if np.diagonal(pattern).any():
        return True
    lengths = (level[:, None] + 1 - level[None, :])[pattern]
    # An edge within one BFS level has length 1, which settles the gcd at once.
    return bool((lengths == 1).any() or np.gcd.reduce(lengths) == 1)


def has_positive_diagonal(M) -> bool:
    return classify(M).positive_diagonal


def contraction_condition(M) -> tuple[bool, float | None]:
    """Check 2*m_ii > m_ij for every i, j; when it holds, return the constant
    C = max_{i,j} m_ij / (2*m_ii) < 1."""
    cls = _nonnegative(M)
    return cls.contraction_condition, cls.contraction_constant


def _row_max(a) -> np.ndarray:
    """a.max(axis=1) of the C-contiguous a, exactly, and 2-2.5x faster."""
    return np.maximum.reduceat(a.reshape(-1), np.arange(0, a.size, a.shape[0]))


def perron_vector(M, tol: float = 1e-12, max_iter: int = 100000) -> tuple[PositiveVector, float]:
    """Dominant eigenpair of a primitive matrix by power iteration.

    Starts from the all-ones vector (positive, so it overlaps the dominant
    direction), normalizes by the infinity norm each step, and estimates the
    eigenvalue as ||Mv||_inf / ||v||_inf. Returns (v, lambda) with
    ||Mv - lambda*v||_inf <= tol * ||v||_inf and ||v||_inf = 1, or raises
    ConvergenceError, at once where lambda exceeds the largest double.
    """
    m = _entries(M)
    tol = _tol(tol)
    max_iter = _count(max_iter, "max_iter")
    if not is_primitive(m):  # checks finiteness
        raise NotPrimitiveError("power iteration requires a primitive matrix")
    v = np.ones(m.shape[0])
    lam, defect = 0.0, np.inf
    with np.errstate(over="ignore"):  # only the first product can overflow: v <= 1 after it
        for _ in range(max_iter):
            w = m @ v
            lam = float(np.max(w))  # ||w||_inf; w > 0 because no row is zero
            if not lam < np.inf:  # every later round would be NaN
                raise ConvergenceError("power iteration: M v overflows the double range; lambda is no double")
            defect = float(np.max(np.abs(w - lam * v)))
            if defect <= tol:
                return PositiveVector(v), lam
            v = w / lam
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} within {max_iter} iterations: "
        f"lambda {lam!r}, defect {defect:.3e}"
    )


def classify(M) -> Classification:
    """Populate the full certificate, reported with every solve. It checks
    first that M is finite, which the solvers' prologue leaves to it, from
    the reductions it takes anyway, and branches on the diagonal first.

    A positive diagonal takes M's minimum, where NaN and -inf show, and its
    row maxima, where +inf shows and which give the contraction constant.
    Otherwise one pass takes the column minima of the off-diagonal entries,
    whose minimum decides nonnegativity with the diagonal's and whether the
    off-diagonal is complete, and one maximum shows NaN and +inf. An ndarray
    is read in place, as by the solvers' prologue."""
    a = _entries(M)
    diag = a.diagonal()
    dmin = vmin(diag)
    positive_diagonal = bool(dmin > 0)
    if positive_diagonal:
        lo = a.min()
        rows = _row_max(a)
        hi = vmax(rows)
        complete = bool(lo > 0)
    else:
        # In rows of n + 1, the flat entries after the first hold the
        # off-diagonal in n columns; axis=0 keeps numpy from buffering the
        # strided view as axis=None would.
        n = a.shape[0]
        off = vmin(a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].min(axis=0)) if n > 1 else np.inf
        lo = dmin if dmin != dmin or dmin < off else off  # NaN wins
        hi = a.max()
        # With every off-diagonal entry positive, the digraph has cycles of
        # length 2 and 3 from n = 3 on, so M is primitive whatever its
        # diagonal holds.
        complete = bool(n >= 3 and lo >= 0 and off > 0)
    if not (lo > -np.inf and hi < np.inf):  # NaN fails both
        raise ValidationError("matrix entries must be finite (no NaN or infinity)")
    nonnegative = bool(lo >= 0)
    # A positive diagonal or a complete off-diagonal leaves no zero row; a
    # positive matrix and a complete off-diagonal are primitive.
    has_zero_row = not (positive_diagonal or complete or a.any(axis=1).all())
    primitive = complete or (nonnegative and _is_primitive(a))
    condition, constant = False, None
    if nonnegative and positive_diagonal:
        # Halving the quotient is exact and, unlike 2*m_ii, cannot overflow;
        # row maxima first give the same c. A quotient overflows only where
        # hi / dmin does, so only then is the costly errstate needed.
        if float(hi) / float(dmin) < np.inf:
            c = 0.5 * float(vmax(rows / diag))
        else:
            with np.errstate(over="ignore"):  # an overflowing quotient is >= 2: no contraction
                c = 0.5 * float(vmax(rows / diag))
        if c < 1.0:
            condition, constant = True, c
    return Classification(
        nonnegative=nonnegative,
        positive_diagonal=positive_diagonal,
        primitive=primitive,
        contraction_condition=condition,
        contraction_constant=constant,
        has_zero_row=has_zero_row,
    )
