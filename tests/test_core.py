import math
import tracemalloc

import numpy as np
import pytest

from conftest import SQRT2, SQRT5, TRIANGULAR_X, ZERO_DIAG_X
from inversepoint import (
    DimensionError,
    Matrix,
    PositiveVector,
    SolverConfig,
    ValidationError,
    certify,
    classify,
    contraction_condition,
    diag_sandwich,
    inverse_elementwise,
    is_primitive,
    matvec,
    multistart_uniqueness,
    solve,
    solve_newton,
)
from inversepoint.oracle import oracle_solve


def test_matrix_rejects_nan_and_inf():
    with pytest.raises(ValidationError):
        Matrix([[1.0, float("nan")], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        Matrix([[1.0, float("inf")], [0.0, 1.0]])


def _nonfinite_inputs():
    """(id, ndarray) for NaN, +inf and -inf on and off the diagonal of a
    positive and a zero-diagonal matrix, and alone in a 1x1."""
    positive = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 4.0]])
    zero_diagonal = positive - np.diag(np.diagonal(positive))
    for bad in (np.nan, np.inf, -np.inf):
        for name, base in (("positive", positive), ("zero_diagonal", zero_diagonal)):
            for where in ((1, 1), (0, 2)):
                a = base.copy()
                a[where] = bad
                yield f"{bad}-{name}-{'diagonal' if where == (1, 1) else 'off'}", a
        yield f"{bad}-1x1", np.array([[bad]])


NONFINITE = list(_nonfinite_inputs())


@pytest.mark.parametrize("a", [a for _, a in NONFINITE], ids=[i for i, _ in NONFINITE])
def test_every_entry_point_rejects_nonfinite_entries(a):
    # The solvers' prologue leaves the check to classify, which takes it from
    # its own reductions: NaN and -inf show in the minimum, +inf only in a
    # maximum. A check that caught NaN alone would let both infinities through.
    calls = [classify, lambda m: multistart_uniqueness(m, starts=2)]
    calls += [lambda m, k=k: solve(m, SolverConfig(method=k)) for k in ("auto", "bracket", "contraction", "newton")]
    calls.append(lambda m: certify(m, np.ones(len(m))))
    for given in (a, a.tolist()):
        for call in calls:
            with pytest.raises(ValidationError, match=r"^matrix entries must be finite \(no NaN or infinity\)$"):
                call(given)


def _peak_bytes(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _large(kind, n=300):
    a = np.random.default_rng(8).uniform(0.5, 1.0, (n, n))
    if kind == "zero_diagonal":
        a = a + a.T
        np.fill_diagonal(a, 0.0)
    return a


@pytest.mark.parametrize("kind", ["positive", "zero_diagonal"])
def test_a_solve_makes_no_n_by_n_temporary(kind):
    # An n x n float64 is 8n^2 bytes and an n x n bool n^2; a solve that
    # the sweep settles allocates only vectors. Checking finiteness with
    # np.isfinite(M) peaked at 1.02 n^2 bytes here.
    a = _large(kind)
    n = a.shape[0]
    solve(a)  # numpy's own one-time allocations are not the solve's
    res, peak = _peak_bytes(lambda: solve(a))
    assert res.converged and res.iterations == 0
    assert peak < n * n / 2, peak
    assert not res.x.values.flags.writeable


@pytest.mark.parametrize("kind", ["positive", "zero_diagonal"])
@pytest.mark.parametrize("entry", [classify, is_primitive, contraction_condition], ids=lambda f: f.__name__)
def test_the_hypothesis_checks_make_no_n_by_n_temporary(entry, kind):
    # They read M in place, as a solve does: copying it costs 8n^2 bytes.
    a = _large(kind)
    n = a.shape[0]
    entry(a)
    _, peak = _peak_bytes(lambda: entry(a))
    assert peak < n * n / 2, peak
    assert a.flags.writeable


def test_the_result_does_not_alias_the_callers_start():
    a = np.eye(3)
    x0 = np.ones(3)  # exact: x*(Mx) = 1, so no step is taken
    res = solve_newton(a, x0)
    assert res.iterations == 0 and res.x.values.tobytes() == x0.tobytes()
    assert x0.flags.writeable and not np.shares_memory(res.x.values, x0)
    assert not res.x.values.flags.writeable
    x0[0] = 5.0
    assert res.x.values[0] == 1.0


def test_matrix_copies_its_argument():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    mtx = Matrix(a)
    a[0, 0] = 7.0
    assert mtx.entries[0, 0] == 2.0
    assert a.flags.writeable and not mtx.entries.flags.writeable


def test_solve_leaves_a_float64_array_unchanged_and_writeable():
    # The solvers read a C-contiguous float64 array through a read-only view
    # instead of copying it; the caller's own array keeps its flags.
    a = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 4.0]])
    before = a.tobytes()
    for method in ("auto", "bracket", "contraction", "newton"):
        solve(a, SolverConfig(method=method))
        assert a.tobytes() == before and a.flags.writeable
    a[0, 0] = 5.0


@pytest.mark.parametrize("form", ["list", "int", "fortran", "strided", "matrix", "fortran_matrix"])
def test_every_input_form_solves_bitwise_as_the_c_order_array(form):
    # Matrix stores its entries in C order, so a product with M rounds the
    # same whatever the layout of the argument. BLAS sums a Fortran-order
    # array in another order.
    a = np.random.default_rng(3).integers(1, 10, (12, 12)).astype(np.float64)
    given = {
        "list": a.tolist(),
        "int": a.astype(np.int64),
        "fortran": np.asfortranarray(a),
        "strided": np.repeat(a, 2, axis=1)[:, ::2],
        "matrix": Matrix(a),
        "fortran_matrix": Matrix(np.asfortranarray(a)),
    }[form]
    ref = solve(a)
    res = solve(given)
    assert res.x.values.tobytes() == ref.x.values.tobytes()
    assert np.array_equal(res.trace, ref.trace) and res.iterations == ref.iterations


def test_matrix_rejects_non_square():
    with pytest.raises(DimensionError):
        Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(DimensionError):
        Matrix([1.0, 2.0])
    with pytest.raises(DimensionError):
        Matrix(np.zeros((0, 0)))


def test_matrix_allows_negative_entries():
    # Sign constraints are enforced by classification and the solvers.
    m = Matrix([[1.0, -2.0], [0.0, 1.0]])
    assert m.entries[0, 1] == -2.0


def test_matrix_is_immutable():
    m = Matrix([[1.0]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 2.0
    with pytest.raises(AttributeError):
        m.entries = np.ones((2, 2))


def test_positive_vector_validation():
    with pytest.raises(ValidationError):
        PositiveVector([1.0, 0.0])
    with pytest.raises(ValidationError):
        PositiveVector([1.0, -1.0])
    with pytest.raises(ValidationError):
        PositiveVector([1.0, float("nan")])
    with pytest.raises(DimensionError):
        PositiveVector([[1.0, 2.0]])
    v = PositiveVector([2.0, 0.5])
    with pytest.raises(ValueError):
        v.values[0] = 3.0


def test_matvec_identity():
    m = Matrix(np.eye(3))
    v = PositiveVector([1.0, 1.0, 1.0])
    assert np.array_equal(matvec(m, v), np.array([1.0, 1.0, 1.0]))


def test_matvec_triangular_example(triangular):
    expected = np.array([
        1.0,
        (SQRT5 + 1.0) / 2.0,
        (SQRT5 + math.sqrt(2.0 * SQRT5 + 22.0) + 1.0) / 4.0,
    ])
    got = matvec(triangular, TRIANGULAR_X)
    assert np.max(np.abs(got - expected)) < 1e-15 * np.max(expected)


def test_matvec_zero_diag_example(zero_diag):
    expected = np.array([1.0 / SQRT2, SQRT2, SQRT2])
    got = matvec(zero_diag, ZERO_DIAG_X)
    assert np.max(np.abs(got - expected)) < 1e-15 * SQRT2


def test_matvec_dimension_mismatch():
    with pytest.raises(DimensionError):
        matvec(Matrix(np.eye(3)), [1.0, 2.0])


def test_diag_sandwich_identity():
    m = Matrix(np.eye(3))
    out = diag_sandwich(m, [1.0, 1.0, 1.0])
    assert np.array_equal(out.entries, np.eye(3))


def test_diag_sandwich_1x1_scaling():
    out = diag_sandwich(Matrix([[4.0]]), [0.5])
    assert out.entries[0, 0] == 1.0


def test_diag_sandwich_matches_naive_triple_loop():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        m = Matrix(rng.uniform(0, 3, (n, n)))
        x = rng.uniform(0.1, 2.0, n)
        out = diag_sandwich(m, x).entries
        for i in range(n):
            for j in range(n):
                assert out[i, j] == pytest.approx(x[i] * m.entries[i, j] * x[j], rel=1e-15)


def test_diag_sandwich_row_stochastic_at_solution(curves_2d):
    x = oracle_solve(curves_2d, tol=1e-13)
    sums = diag_sandwich(curves_2d, x).entries.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_inverse_elementwise_examples():
    assert np.array_equal(inverse_elementwise([1.0, 1.0]).values, [1.0, 1.0])
    assert np.array_equal(inverse_elementwise([2.0, 0.5]).values, [0.5, 2.0])
    got = inverse_elementwise(ZERO_DIAG_X).values
    expected = np.array([1.0 / SQRT2, SQRT2, SQRT2])
    assert np.max(np.abs(got - expected)) < 1e-15 * SQRT2


def test_inverse_elementwise_is_involution():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = 10.0 ** rng.uniform(-6, 6, int(rng.integers(1, 8)))
        back = inverse_elementwise(inverse_elementwise(v)).values
        assert np.max(np.abs(back - v) / v) < 1e-15
