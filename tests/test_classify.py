import math

import numpy as np
import pytest

from helpers import random_primitive
from inversepoint import (
    ConvergenceError,
    Matrix,
    NonNegativityError,
    NotPrimitiveError,
    classify,
    contraction_condition,
    has_positive_diagonal,
    is_primitive,
    perron_vector,
)


def test_is_primitive_examples(triangular, zero_diag):
    assert is_primitive(zero_diag) is True
    assert is_primitive(triangular) is False
    assert is_primitive(Matrix([[5.0]])) is True
    assert is_primitive(Matrix([[0.0]])) is False
    assert is_primitive(Matrix([[0, 1], [1, 0]])) is False  # period 2
    assert is_primitive(Matrix(np.zeros((2, 2)))) is False


def test_is_primitive_rejects_negative():
    with pytest.raises(NonNegativityError):
        is_primitive(Matrix([[1.0, -1.0], [1.0, 1.0]]))


def test_is_primitive_depends_only_on_zero_pattern():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        pattern = rng.random((n, n)) < 0.5
        a = pattern * rng.uniform(0.1, 5.0, (n, n))
        b = pattern * rng.uniform(0.1, 5.0, (n, n))
        assert is_primitive(Matrix(a)) == is_primitive(Matrix(b))


def test_square_of_primitive_is_primitive():
    rng = np.random.default_rng(22)
    for _ in range(20):
        m = random_primitive(rng, int(rng.integers(2, 6)))
        assert is_primitive(Matrix(m.entries @ m.entries)) is True


def _primitive_by_boolean_powers(a):
    """Reference: square the 0/1 pattern until past the Wielandt exponent
    (n-1)^2 + 1, the power at which a primitive matrix must be positive."""
    pattern = a > 0
    k, target = 1, (a.shape[0] - 1) ** 2 + 1
    while k < target:
        pattern = (pattern.astype(np.int64) @ pattern.astype(np.int64)) > 0
        k *= 2
    return bool(pattern.all())


@pytest.mark.parametrize("zero_diagonal", [False, True])
def test_is_primitive_matches_boolean_powers(zero_diagonal):
    rng = np.random.default_rng(25)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        a = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        if zero_diagonal:
            np.fill_diagonal(a, False)
        a = a * rng.uniform(0.1, 5.0, (n, n))
        assert is_primitive(Matrix(a)) is _primitive_by_boolean_powers(a)


@pytest.mark.parametrize("n", [2, 3, 6, 12, 17])
def test_is_primitive_cycle_with_one_chord(n):
    # The directed n-cycle 0 -> n-1 -> ... -> 1 -> 0 plus the chord 0 -> k
    # has cycles of lengths n and k + 1, so its period is gcd(n, k + 1).
    for k in range(n):
        a = np.zeros((n, n))
        a[np.arange(n), np.arange(n) - 1] = 1.0
        a[0, k] = 1.0
        assert is_primitive(Matrix(a)) is (math.gcd(n, k + 1) == 1)


def test_is_primitive_large_cycle():
    n = 400
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n) - 1] = 1.0
    assert is_primitive(Matrix(a)) is False  # period n
    a[n // 2, n // 2] = 1.0
    assert is_primitive(Matrix(a)) is True


def test_has_positive_diagonal(triangular, zero_diag):
    assert has_positive_diagonal(triangular) is True
    assert has_positive_diagonal(zero_diag) is False
    assert has_positive_diagonal(Matrix(np.eye(4))) is True


def test_contraction_condition_examples(triangular, counterexample):
    ok, c = contraction_condition(Matrix(np.eye(3)))
    assert ok is True and c == 0.5  # the diagonal pair contributes m_ii/(2 m_ii)
    ok, c = contraction_condition(counterexample)
    assert ok is False and c is None  # 2*1 > 2 fails
    ok, c = contraction_condition(triangular)
    assert ok is True and c == 0.5


def test_contraction_condition_implies_positive_diagonal():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = rng.uniform(0, 2, (n, n))
        if rng.random() < 0.3:
            a[rng.integers(0, n), rng.integers(0, n)] = 0.0
        m = Matrix(a)
        ok, c = contraction_condition(m)
        if ok:
            assert has_positive_diagonal(m)
            assert 0.5 <= c < 1.0


def test_perron_vector_scalar():
    v, lam = perron_vector(Matrix([[2.0]]))
    assert np.array_equal(v.values, [1.0])
    assert lam == 2.0


def test_perron_vector_rejects_non_primitive():
    with pytest.raises(NotPrimitiveError):
        perron_vector(Matrix([[0, 1], [1, 0]]))


def _supergolden():
    # real root of t^3 - t^2 - 1 = 0, located by bisection on [1, 2]
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** 3 - mid ** 2 - 1.0 > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_perron_vector_zero_diag_example(zero_diag):
    # char poly by cofactor expansion: lambda^3 - lambda^2 - 1
    v, lam = perron_vector(zero_diag, tol=1e-13)
    assert lam == pytest.approx(_supergolden(), abs=1e-11)
    defect = np.max(np.abs(zero_diag.entries @ v.values - lam * v.values))
    assert defect <= 1e-13
    assert np.max(v.values) == 1.0
    assert (v.values > 0).all()


def test_perron_vector_budget_error_carries_best():
    with pytest.raises(ConvergenceError) as err:
        perron_vector(Matrix([[2.0, 1.0], [0.5, 1.0]]), tol=1e-12, max_iter=1)
    v, lam = err.value.best
    assert lam > 0 and (v.values > 0).all()


def test_square_fixed_vector_is_fixed_by_matrix_itself():
    """For primitive M scaled to unit spectral radius, the positive
    eigenvector of M^2 (computed independently via numpy's eig) is already
    fixed by M itself: a positive vector fixed by the square of a primitive
    matrix must be fixed by the matrix."""
    rng = np.random.default_rng(24)
    for _ in range(20):
        m = random_primitive(rng, int(rng.integers(2, 6)))
        _, lam = perron_vector(m, tol=1e-13)
        a = m.entries / lam
        w, vecs = np.linalg.eig(a @ a)
        k = int(np.argmax(np.abs(w)))
        v = np.real(vecs[:, k])
        v = v / v[np.argmax(np.abs(v))]  # make it positive, sup-normalized
        assert (v > 0).all()
        assert np.max(np.abs(a @ v - v)) <= 10 * 1e-8


def test_classify_examples(triangular, zero_diag):
    c = classify(triangular)
    assert c.nonnegative and c.positive_diagonal and not c.primitive
    assert c.contraction_condition and c.contraction_constant == 0.5
    assert not c.has_zero_row

    c = classify(zero_diag)
    assert c.nonnegative and not c.positive_diagonal and c.primitive
    assert not c.contraction_condition and c.contraction_constant is None
    assert not c.has_zero_row

    c = classify(Matrix(np.zeros((2, 2))))
    assert c.nonnegative and not c.positive_diagonal and not c.primitive
    assert not c.contraction_condition
    assert c.has_zero_row


def test_classify_negative_matrix():
    c = classify(Matrix([[1.0, -1.0], [0.0, 1.0]]))
    assert not c.nonnegative
    assert not c.primitive and not c.contraction_condition
    assert c.positive_diagonal
