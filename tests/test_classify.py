import importlib
import math

import numpy as np
import pytest

from helpers import random_primitive
from inversepoint import (
    Classification,
    ConvergenceError,
    Matrix,
    NonNegativityError,
    NotPrimitiveError,
    ValidationError,
    ZeroRowError,
    classify,
    contraction_condition,
    has_positive_diagonal,
    is_primitive,
    perron_vector,
)
from inversepoint.classify import _bfs_levels, _is_primitive
from inversepoint.core import validate_solvable

# The package attribute inversepoint.classify is the function of that name.
classify_module = importlib.import_module("inversepoint.classify")


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


def test_contraction_condition_rejects_negative():
    # classify checks nonnegativity once and calls the unchecked helpers; the
    # public functions still check.
    with pytest.raises(NonNegativityError):
        contraction_condition(Matrix([[1.0, -1.0], [1.0, 1.0]]))
    assert classify(Matrix([[1.0, -1.0], [1.0, 1.0]])).nonnegative is False


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


def test_perron_vector_rejects_a_nonpositive_tol():
    with pytest.raises(ValidationError, match="tol must be positive"):
        perron_vector(Matrix([[2.0]]), tol=0.0)
    with pytest.raises(ValidationError, match="tol must be positive"):
        perron_vector(Matrix([[2.0]]), tol=float("nan"))  # would run its whole budget


@pytest.mark.parametrize("max_iter", [0, float("nan"), 2.5])
def test_perron_vector_rejects_a_count_that_is_not_a_positive_integer(max_iter):
    with pytest.raises(ValidationError, match="^max_iter must be at least 1 \\(an integer\\)"):
        perron_vector(Matrix([[2.0]]), max_iter=max_iter)
    v, lam = perron_vector(Matrix([[2.0]]), max_iter=np.int64(1))
    assert lam == 2.0


def test_perron_vector_budget_error_carries_best():
    # The budget error states the eigenvalue estimate and the defect
    # max|Mv - lambda v| it reached; it has no SolveResult, so result is None.
    # From v = (1, 1): Mv = (3, 1.5), lambda = 3, defect 1.5.
    message = r"within 1 iterations: lambda 3\.0, defect 1\.500e\+00$"
    with pytest.raises(ConvergenceError, match=message) as err:
        perron_vector(Matrix([[2.0, 1.0], [0.5, 1.0]]), tol=1e-12, max_iter=1)
    assert err.value.result is None and not hasattr(err.value, "best")


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


def _old_classify(a):
    """classify as written with n-by-n temporaries, kept as the reference
    for the reductions that replaced them."""
    nonnegative = bool((a >= 0).all())
    diag = np.diagonal(a)
    primitive, condition, constant = False, False, None
    if nonnegative:
        pattern = a > 0
        if pattern.all():
            primitive = True
        else:
            level = _bfs_levels(pattern)
            if (level < 0).any() or (_bfs_levels(pattern.T) < 0).any():
                primitive = False
            elif np.diagonal(pattern).any():
                primitive = True
            else:
                lengths = (level[:, None] + 1 - level[None, :])[pattern]
                primitive = bool(np.gcd.reduce(lengths) == 1)
        if (diag > 0).all():
            c = 0.5 * float(np.max(a / diag[:, None]))
            condition, constant = (True, c) if c < 1.0 else (False, None)
    return Classification(
        nonnegative=nonnegative,
        positive_diagonal=bool((diag > 0).all()),
        primitive=primitive,
        contraction_condition=condition,
        contraction_constant=constant,
        has_zero_row=bool((~(a != 0).any(axis=1)).any()),
    )


def _old_validate_message(a):
    if (a < 0).any():
        i, j = np.argwhere(a < 0)[0]
        return NonNegativityError, f"matrix entry ({i},{j}) is negative: {a[i, j]}"
    zero_rows = np.nonzero(~(a != 0).any(axis=1))[0]
    if zero_rows.size:
        i = int(zero_rows[0])
        return ZeroRowError, f"row {i} is entirely zero, so x[{i}]*(Mx)[{i}] = 1 is unsatisfiable"
    return None, None


def _reduction_cases():
    rng = np.random.default_rng(2024)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        a = rng.uniform(0.0, 2.0, (n, n))
        kind = int(rng.integers(0, 7))
        if kind == 1:
            np.fill_diagonal(a, 0.0)
        elif kind == 2:
            a[rng.integers(0, n)] = 0.0
        elif kind == 3:
            a[rng.uniform(size=(n, n)) < 0.5] = 0.0
        elif kind == 4:  # sometimes in the zeroed row, which is then not all zero
            a[rng.integers(0, n)] = 0.0
            a[rng.integers(0, n), rng.integers(0, n)] = -rng.uniform(0.1, 1.0)
        elif kind == 5:
            a = np.roll(np.eye(n), 1, axis=1) * a  # a cycle: imprimitive for n > 1
            a[rng.uniform(size=(n, n)) < 0.2] = -0.0
        elif kind == 6:
            a = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), a)  # bipartite
        yield a * float(rng.choice([1e-300, 1e-8, 1.0, 1e8, 1e300]))


def test_reductions_match_the_n_by_n_formulas_bitwise():
    outcomes = set()
    for a in _reduction_cases():
        m = Matrix(a)
        assert classify(m) == _old_classify(a)
        error, message = _old_validate_message(a)
        if error is None:
            validate_solvable(m)
        else:
            with pytest.raises(error) as err:
                validate_solvable(m)
            assert str(err.value) == message
        outcomes.add(error)
    assert outcomes == {None, NonNegativityError, ZeroRowError}


def _patterns():
    """The nonnegative patterns the tests above classify."""
    yield from (a for a in _reduction_cases() if (a >= 0).all())
    rng = np.random.default_rng(25)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        a = (rng.random((n, n)) < rng.uniform(0.1, 0.9)) * rng.uniform(0.1, 5.0, (n, n))
        yield a
        np.fill_diagonal(a, 0.0)
        yield a
    for n in (2, 3, 6, 12, 17, 400):
        for k in range(min(n, 20)):
            a = np.zeros((n, n))
            a[np.arange(n), np.arange(n) - 1] = 1.0
            a[0, k] = 1.0
            yield a
    for n in (1, 2, 3, 5, 64):
        yield np.ones((n, n)) - np.eye(n)


def _classify_counting_graph_tests(monkeypatch, a):
    """(classify(a), how many times it ran the graph test _is_primitive)."""
    calls = []

    def counted(b):
        calls.append(None)
        return _is_primitive(b)

    monkeypatch.setattr(classify_module, "_is_primitive", counted)
    try:
        return classify(Matrix(a)), len(calls)
    finally:
        monkeypatch.undo()


def test_complete_off_diagonal_shortcut_agrees_with_the_graph_test(monkeypatch):
    # classify skips the graph test on a nonnegative matrix only where it
    # finds M positive or its off-diagonal complete; both are primitive.
    shortcuts = 0
    for a in _patterns():
        cls, graph_tests = _classify_counting_graph_tests(monkeypatch, a)
        if not graph_tests:
            shortcuts += 1
            assert _is_primitive(a)
        assert cls.primitive is _is_primitive(a)
    assert shortcuts >= 5


def test_complete_off_diagonal_shortcut_needs_n3_and_every_off_diagonal_entry(monkeypatch):
    # A 2x2 zero diagonal has period 2; n = 1 has no off-diagonal entry.
    for a in ([[0.0, 1.0], [1.0, 0.0]], [[0.0]], [[1.0, 1.0], [1.0, 0.0]]):
        assert _classify_counting_graph_tests(monkeypatch, np.array(a))[1] == 1
    assert classify(Matrix([[0.0, 1.0], [1.0, 0.0]])).primitive is False
    # One off-diagonal zero falls through to the BFS, which decides either way.
    a = np.ones((3, 3)) - np.eye(3)
    assert _classify_counting_graph_tests(monkeypatch, a) == (classify(Matrix(a)), 0)
    a[0, 1] = 0.0
    cls, graph_tests = _classify_counting_graph_tests(monkeypatch, a)
    assert graph_tests == 1 and cls.primitive is True
    b = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])  # bipartite path
    cls, graph_tests = _classify_counting_graph_tests(monkeypatch, b)
    assert graph_tests == 1 and cls.primitive is False


def _zero_diagonal_cases():
    """Seeded zero-diagonal inputs, complete off the diagonal or not, with a
    negative entry now and then, and some diagonals only partly zero."""
    rng = np.random.default_rng(2022)
    for n in [*range(1, 10), 17, 64, 65, 100]:
        for _ in range(12):
            a = rng.uniform(0.05, 2.0, (n, n))
            np.fill_diagonal(a, 0.0)
            kind = int(rng.integers(0, 4))
            if kind == 1:
                a[rng.uniform(size=(n, n)) < rng.uniform(0.0, 0.5)] = 0.0
            elif kind == 2:
                a[rng.integers(0, n), rng.integers(0, n)] = -rng.uniform(0.1, 1.0)
            elif kind == 3:
                np.fill_diagonal(a, rng.uniform(size=n) < 0.5)
            yield a


def test_zero_diagonal_branch_matches_the_n_by_n_formulas():
    # Without a positive diagonal, classify reads M's minimum from the column
    # minima of its off-diagonal entries and the diagonal's minimum.
    complete = incomplete = negative = 0
    for a in _zero_diagonal_cases():
        cls = classify(Matrix(a))
        assert cls == _old_classify(a)
        off = a[~np.eye(len(a), dtype=bool)]
        complete += bool(len(a) >= 3 and (off > 0).all())
        incomplete += bool((off >= 0).all() and not (off > 0).all())
        negative += not cls.nonnegative
    assert min(complete, incomplete, negative) >= 10


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_zero_diagonal_branch_reads_every_entry(n):
    # -inf shows only in the minimum, so the off-diagonal pass must reach
    # every entry; a negative entry anywhere makes M not nonnegative.
    base = np.ones((n, n)) - np.eye(n)
    assert classify(Matrix(base)).nonnegative
    for i in range(n):
        for j in range(n):
            for bad in (np.nan, np.inf, -np.inf):
                a = base.copy()
                a[i, j] = bad
                with pytest.raises(ValidationError, match="must be finite"):
                    classify(a)
            a = base.copy()
            a[i, j] = -1.0
            cls = classify(a)
            assert not cls.nonnegative and cls == _old_classify(a)


def test_zero_diagonal_branch_at_n_1_and_2():
    for a in ([[0.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.0, 2.0], [3.0, 0.0]], [[-0.0, 1.0], [1.0, 0.0]]):
        a = np.array(a)
        assert classify(a) == _old_classify(a)
    assert classify(np.array([[0.0]])).has_zero_row
    for a in ([[np.nan]], [[0.0, 1.0], [np.nan, 0.0]], [[np.nan, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, np.inf]]):
        with pytest.raises(ValidationError, match="must be finite"):
            classify(np.array(a))


def test_contraction_quotient_that_overflows_raises_no_warning():
    # The quotient m_ij / m_ii can overflow only where max M / min diag does;
    # there classify silences the overflow, and tier-1 makes a RuntimeWarning
    # an error. An overflowing quotient is >= 2: no contraction.
    cls = classify(np.array([[5e-324, 1e300], [1.0, 1.0]]))
    assert cls.positive_diagonal and (cls.contraction_condition, cls.contraction_constant) == (False, None)
    # Rows 600 decades apart whose own quotients stay small still contract.
    cls = classify(np.array([[1e300, 1e299], [1e-301, 1e-300]]))
    assert (cls.contraction_condition, cls.contraction_constant) == (True, 0.5)
