import math
import tracemalloc

import numpy as np
import pytest

from conftest import SQRT2, SQRT5, TRIANGULAR_X, ZERO_DIAG_X
from inversepoint import (
    DimensionError,
    F_map,
    Matrix,
    PositiveVector,
    RowContext,
    SolverConfig,
    ValidationError,
    certify,
    classify,
    contraction_condition,
    diag_sandwich,
    emit_matrix,
    inverse_elementwise,
    is_primitive,
    matvec,
    multistart_uniqueness,
    perron_vector,
    residual,
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


def _with_ones(f):
    return lambda m: f(m, np.ones(len(m)))


@pytest.mark.parametrize("a", [a for _, a in NONFINITE], ids=[i for i, _ in NONFINITE])
def test_every_entry_point_rejects_nonfinite_entries(a):
    # The solvers' prologue leaves the check to classify, which takes it from
    # its own reductions: NaN and -inf show in the minimum, +inf only in a
    # maximum. A check that caught NaN alone would let both infinities through.
    calls = [classify, lambda m: multistart_uniqueness(m, starts=2)]
    calls += [lambda m, k=k: solve(m, SolverConfig(method=k)) for k in ("auto", "bracket", "contraction", "newton")]
    calls += [_with_ones(f) for f in (certify, matvec, residual, F_map, diag_sandwich)]
    calls += [perron_vector, lambda m: RowContext.from_matrix(m, 0), oracle_solve, emit_matrix]
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


@pytest.mark.parametrize("kind", ["positive", "zero_diagonal"])
@pytest.mark.parametrize(
    "entry",
    [_with_ones(matvec), _with_ones(residual), _with_ones(F_map), perron_vector, lambda m: RowContext.from_matrix(m, 1)],
    ids=["matvec", "residual", "F_map", "perron_vector", "RowContext.from_matrix"],
)
def test_the_read_only_functions_make_no_n_by_n_temporary(entry, kind):
    # Reading M as a Matrix, a copy and an np.isfinite mask, peaked at 9 n^2
    # bytes; read in place, each allocates vectors only.
    a = _large(kind)
    n = a.shape[0]
    entry(a)
    _, peak = _peak_bytes(lambda: entry(a))
    assert peak < n * n / 2, peak
    assert a.flags.writeable


def test_emit_matrix_reads_an_ndarray_in_place():
    # Its own output and the row strings joined into it take about twice the
    # output's length; a copy of M would add 8n^2 bytes and a mask n^2.
    a = _large("positive")
    n = a.shape[0]
    ref = emit_matrix(Matrix(a))
    out, peak = _peak_bytes(lambda: emit_matrix(a))
    assert out == ref
    assert peak < 2 * len(out) + n * n / 2, (peak, len(out))
    assert a.flags.writeable


def test_certify_reads_an_ndarray_in_place():
    # Its own n x n buffer, for the row sums of diag(x) M diag(x), is 8n^2
    # bytes; a copy of M would add 8n^2 and an np.isfinite mask n^2.
    a = _large("positive")
    n = a.shape[0]
    x = np.random.default_rng(9).uniform(0.5, 2.0, n)
    certify(a, x)
    cert, peak = _peak_bytes(lambda: certify(a, x))
    assert peak < 10 * n * n, peak
    assert a.flags.writeable
    ref = certify(Matrix(a), x)
    assert np.array_equal(cert.row_sums, ref.row_sums)
    assert (cert.eq2_defect, cert.inverse_defect) == (ref.eq2_defect, ref.inverse_defect)


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


def test_positive_vector_array_honours_copy():
    v = PositiveVector([2.0, 0.5])
    fresh = np.array(v, copy=True)
    assert fresh.flags.writeable and not np.shares_memory(fresh, v.values)
    fresh[0] = 3.0
    assert v.values[0] == 2.0
    assert np.asarray(v) is v.values
    assert np.asarray(v, dtype=np.float32).tolist() == [2.0, 0.5]
    with pytest.raises(ValueError):
        np.array(v, dtype=np.float32, copy=False)


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


def test_positive_vector_len_and_immutability():
    v = PositiveVector([2.0, 0.5, 1.0])
    assert len(v) == 3
    with pytest.raises(AttributeError, match="^PositiveVector is immutable$"):
        v.values = np.ones(3)


def test_matrix_repr_reads_back():
    m = Matrix([[1.0, 0.25], [3.0, 1e-300]])
    assert repr(m) == "Matrix([[1.0, 0.25], [3.0, 1e-300]])"
    assert np.array_equal(eval(repr(m), {"Matrix": Matrix}).entries, m.entries)


# (matrix, vector) pairs that numpy cannot read as doubles; numpy would cast
# the complex array with a warning and drop its imaginary part.
NOT_REAL = {
    "int_beyond_the_double_range": ([[10**400, 1], [1, 1]], [1, 10**400]),
    "ragged": ([[1.0, 2.0], [3.0]], [1.0, [2.0]]),
    "text": ([["a", "b"], ["c", "d"]], [1.0, "x"]),
    "complex_list": ([[2.0, 1j], [1.0, 3.0]], [1.0, 1j]),
    "complex_array": (np.array([[2 + 5j, 1], [1, 3]]), np.array([1 + 1j, 1.0])),
}


@pytest.mark.parametrize("matrix, vector", NOT_REAL.values(), ids=NOT_REAL.keys())
def test_input_that_is_not_real_numbers_is_a_validation_error(matrix, vector):
    good, ones = np.array([[2.0, 1.0], [1.0, 3.0]]), np.ones(2)
    takes_m = [solve, classify, Matrix] + [lambda m, f=f: f(m, ones) for f in (certify, matvec, F_map)]
    takes_x = [PositiveVector] + [lambda x, f=f: f(good, x) for f in (certify, matvec, F_map, solve_newton)]
    for call, arg in [(f, matrix) for f in takes_m] + [(f, vector) for f in takes_x]:
        with pytest.raises(ValidationError, match="^entries must be real numbers: "):
            call(arg)


@pytest.mark.parametrize(
    "v, message",
    [
        ([-1.0, np.nan], "finite"),
        ([0.0, np.inf], "finite"),
        ([1.0, -np.inf], "finite"),
        ([np.nan, np.nan], "finite"),
        ([-0.0, 1.0], "strictly positive"),
        ([2.0, -5e-324], "strictly positive"),
    ],
    ids=str,
)
def test_positive_vector_reports_a_non_finite_entry_before_a_non_positive_one(v, message):
    with pytest.raises(ValidationError, match=f"^vector entries must be {message}$"):
        PositiveVector(v)


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


# Every reader of x goes through one rule: 1-d, of M's length, and nonempty
# where x must be positive.
VECTOR_READERS = {
    "PositiveVector": lambda x: PositiveVector(x),
    "matvec": lambda x: matvec(np.eye(2), x),
    "residual": lambda x: residual(np.eye(2), x),
    "F_map": lambda x: F_map(np.eye(2), x),
    "diag_sandwich": lambda x: diag_sandwich(np.eye(2), x),
    "certify": lambda x: certify(np.eye(2), x),
}


@pytest.mark.parametrize("name", VECTOR_READERS)
def test_every_reader_of_x_states_the_shape_or_length_it_got(name):
    read = VECTOR_READERS[name]
    with pytest.raises(DimensionError, match=r"^expected a 1-d vector, got shape \(1, 2\)$"):
        read([[1.0, 1.0]])
    with pytest.raises(DimensionError, match=r"^expected a 1-d vector, got shape \(\)$"):
        read(1.0)
    positive = name in ("PositiveVector", "diag_sandwich", "certify")
    with pytest.raises(DimensionError, match=r"^expected a 1-d vector, got shape \(0,\)$" if positive
                       else "^vector has length 0, expected 2$"):
        read([])
    if name != "PositiveVector":
        with pytest.raises(DimensionError, match="^vector has length 3, expected 2$"):
            read([1.0, 1.0, 1.0])


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan"), -np.inf], ids=str)
def test_every_tol_reader_rejects_a_tol_that_is_not_positive(tol):
    for call in (lambda: SolverConfig(tol=tol), lambda: perron_vector([[2.0, 1.0], [1.0, 2.0]], tol=tol),
                 lambda: oracle_solve(np.eye(2), tol=tol)):
        with pytest.raises(ValidationError, match="^tol must be positive$"):
            call()


def test_every_tol_reader_takes_an_infinite_tol():
    assert SolverConfig(tol=np.inf).tol == np.inf
    assert perron_vector([[2.0, 1.0], [1.0, 2.0]], tol=np.inf)[1] == 3.0
    assert np.array_equal(oracle_solve(np.eye(2), tol=np.inf).values, [1.0, 1.0])


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


def test_diag_sandwich_is_bitwise_the_two_products_in_one_buffer():
    # (x_i * m_ij) * x_j, negative entries and overflows included, in one
    # n x n buffer that the result adopts: two temporaries, a copy and an
    # np.isfinite mask peaked at 17 n^2 bytes.
    rng = np.random.default_rng(12)
    overflows = 0
    for _ in range(200):
        n = int(rng.integers(1, 10))
        a = rng.uniform(-3.0, 3.0, (n, n)) * 10.0 ** rng.uniform(-200, 200, (n, n))
        x = 10.0 ** rng.uniform(-100, 100, n)
        with np.errstate(over="ignore"):
            ref = x[:, None] * a * x[None, :]
        if np.isfinite(ref).all():
            assert diag_sandwich(a, x).entries.tobytes() == ref.tobytes()
        else:
            overflows += 1
            with pytest.raises(OverflowError):
                diag_sandwich(a, x)
    assert 10 <= overflows <= 190
    m = Matrix(np.random.default_rng(13).uniform(-1.0, 1.0, (300, 300)))
    x = np.random.default_rng(14).uniform(0.5, 2.0, 300)
    diag_sandwich(m, x)
    out, peak = _peak_bytes(lambda: diag_sandwich(m, x))
    assert peak <= 9 * 300 * 300, peak
    assert not out.entries.flags.writeable


def test_diag_sandwich_row_stochastic_at_solution(curves_2d):
    x = oracle_solve(curves_2d, tol=1e-13)
    sums = diag_sandwich(curves_2d, x).entries.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_diag_sandwich_reports_its_own_overflow():
    # M and x are both valid; only their product leaves the double range,
    # which raises no RuntimeWarning (tier-1 turns one into an error).
    with pytest.raises(OverflowError, match=r"^diag\(x\) M diag\(x\) overflows the double range$"):
        diag_sandwich([[1e300, 1.0], [1.0, 1.0]], [1e10, 1.0])


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
