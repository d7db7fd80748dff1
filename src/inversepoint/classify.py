"""Hypothesis checks on the input matrix and the certificate that drives
solver-strategy selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Matrix, PositiveVector, as_matrix
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


def _require_nonnegative(mtx: Matrix) -> None:
    if (mtx.entries < 0).any():
        raise NonNegativityError("operation requires a nonnegative matrix")


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


def is_primitive(M) -> bool:
    """True iff M is irreducible with period 1, i.e. some power of M is positive.

    A graph test on the zero/nonzero pattern (Denardo, Math. Oper. Res. 1977):
    M is irreducible iff a breadth-first search from node 0 reaches every node
    both along the edges i -> j (m_ij > 0) and against them. The period of an
    irreducible pattern is the gcd of level[i] + 1 - level[j] over its edges,
    with level the BFS distance from node 0; a positive diagonal entry is a
    cycle of length 1. For n = 1 this gives primitive iff m_11 > 0.
    """
    mtx = as_matrix(M)
    _require_nonnegative(mtx)
    pattern = mtx.entries > 0
    if pattern.all():
        return True
    level = _bfs_levels(pattern)
    if (level < 0).any() or (_bfs_levels(pattern.T) < 0).any():
        return False
    if np.diagonal(pattern).any():
        return True
    lengths = (level[:, None] + 1 - level[None, :])[pattern]
    return bool(np.gcd.reduce(lengths) == 1)


def has_positive_diagonal(M) -> bool:
    mtx = as_matrix(M)
    return bool((np.diagonal(mtx.entries) > 0).all())


def contraction_condition(M) -> tuple[bool, float | None]:
    """Check 2*m_ii > m_ij for every i, j; when it holds, return the constant
    C = max_{i,j} m_ij / (2*m_ii) < 1."""
    mtx = as_matrix(M)
    _require_nonnegative(mtx)
    diag = np.diagonal(mtx.entries)
    if (diag <= 0).any():
        return False, None
    c = float(np.max(mtx.entries / (2.0 * diag[:, None])))
    if c < 1.0:
        return True, c
    return False, None


def perron_vector(M, tol: float = 1e-12, max_iter: int = 100000) -> tuple[PositiveVector, float]:
    """Dominant eigenpair of a primitive matrix by power iteration.

    Starts from the all-ones vector (positive, so it overlaps the dominant
    direction), normalizes by the infinity norm each step, and estimates the
    eigenvalue as ||Mv||_inf / ||v||_inf. Returns (v, lambda) with
    ||Mv - lambda*v||_inf <= tol * ||v||_inf and ||v||_inf = 1.
    """
    mtx = as_matrix(M)
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if not is_primitive(mtx):
        raise NotPrimitiveError("power iteration requires a primitive matrix")
    m = mtx.entries
    v = np.ones(mtx.n)
    lam = 0.0
    for _ in range(max_iter):
        w = m @ v
        lam = float(np.max(w))  # ||w||_inf; w > 0 because no row is zero
        if float(np.max(np.abs(w - lam * v))) <= tol:
            return PositiveVector(v), lam
        v = w / lam
    err = ConvergenceError(
        f"power iteration did not reach tol={tol} within {max_iter} iterations"
    )
    err.best = (PositiveVector(v), lam)
    raise err


def classify(M) -> Classification:
    """Populate the full certificate for strategy selection and reporting."""
    mtx = as_matrix(M)
    a = mtx.entries
    nonnegative = bool((a >= 0).all())
    positive_diagonal = has_positive_diagonal(mtx)
    has_zero_row = bool((~(a != 0).any(axis=1)).any())
    if nonnegative:
        primitive = is_primitive(mtx)
        condition, constant = contraction_condition(mtx)
    else:
        primitive = False
        condition, constant = False, None
    return Classification(
        nonnegative=nonnegative,
        positive_diagonal=positive_diagonal,
        primitive=primitive,
        contraction_condition=condition,
        contraction_constant=constant,
        has_zero_row=has_zero_row,
    )
