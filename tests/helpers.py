"""Random-matrix recipes and the default Newton start, shared by the tests."""

import numpy as np

from inversepoint import Matrix, is_primitive


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
    sum of M overflows."""
    return 1.0 / np.sqrt(np.asarray(m, dtype=np.float64).sum(axis=1))
