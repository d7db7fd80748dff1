"""Random-matrix recipes and the default Newton start, shared by the tests."""

import numpy as np

from inversepoint import Matrix, SolverConfig, classify, is_primitive


def random_positive_diagonal(rng, n):
    """Entries uniform on [0, 2] with the diagonal shifted by +0.1."""
    a = rng.uniform(0.0, 2.0, (n, n))
    a[np.diag_indices(n)] += 0.1
    return Matrix(a)


def random_primitive_positive_diagonal(rng, n):
    """Like random_positive_diagonal, with some off-diagonal zeros sprinkled
    in for pattern variety, rejection-filtered to stay primitive."""
    while True:
        a = rng.uniform(0.0, 2.0, (n, n))
        a[np.diag_indices(n)] += 0.1
        for _ in range(int(rng.integers(0, n))):
            i, j = rng.integers(0, n, 2)
            if i != j:
                a[i, j] = 0.0
        m = Matrix(a)
        if is_primitive(m):
            return m


def random_primitive(rng, n):
    """Primitive but not necessarily positive-diagonal: zeros may land
    anywhere, including the diagonal."""
    while True:
        a = rng.uniform(0.1, 2.0, (n, n))
        for _ in range(int(rng.integers(0, n + 1))):
            i, j = rng.integers(0, n, 2)
            a[i, j] = 0.0
        m = Matrix(a)
        if is_primitive(m):
            return m


def random_contraction(rng, n):
    """Rejection-sample uniform [0, 2] entries until 2*m_ii > m_ij for all
    pairs (the contraction-certificate hypothesis)."""
    while True:
        a = rng.uniform(0.0, 2.0, (n, n))
        d = np.diagonal(a)
        if (d > 0).all() and (a < 2.0 * d[:, None]).all():
            return Matrix(a)


def default_start(m):
    """1/sqrt(rowsum(M)), the default start of solve_newton wherever no row
    sum of M overflows, with the row sums taken as it takes them: one product
    with a vector of ones."""
    a = np.asarray(m, dtype=np.float64, order="C")
    return 1.0 / np.sqrt(a @ np.ones(a.shape[0]))


# Draws of wide_range_draws() whose solution lies outside the double range
# (draw 25 at x ~ (1.37e95, 1.6e-344)), and those whose solution has a
# subnormal entry; the other 76 lie in the normal range. The exact pair
# (x', k), x = 2^k x', of balanced_pass classifies them as a
# 60-digit solve does.
OUT_OF_RANGE_DRAWS = (4, 9, 13, 17, 20, 25, 29, 30, 38, 40, 43, 46, 53, 55, 56, 67, 69, 84, 89, 92)
SUBNORMAL_DRAWS = (19, 28, 48, 59)


def wide_range_draws(count=100):
    """Seeded n in [2, 6] matrices with entries U(0, 1) * 10^U(-300, 300).
    Every entry is positive, so each matrix is primitive with a positive
    diagonal and has a unique positive solution."""
    rng = np.random.default_rng(0)
    out = []
    for _ in range(count):
        n = rng.integers(2, 7)
        out.append(rng.uniform(0, 1, (n, n)) * 10.0 ** rng.uniform(-300, 300, (n, n)))
    return out


def balanced_pass(m):
    """(Newton's result on M's balance M' from its default start, with M's
    Classification, and k): the pass behind solve_newton's fallback, whose
    exact pair (x', k) gives x = 2^k x' whatever the range of x."""
    # Imported here: tools/outcomes.py reads this module with a parent's src.
    from inversepoint.core import _entries
    from inversepoint.solver import _balanced, _newton

    a = _entries(m)
    mb, k = _balanced(a)
    return _newton(mb, None, SolverConfig(), classify(a)), k
