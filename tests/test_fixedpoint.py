import decimal
import math
import re

import numpy as np
import pytest

from conftest import SQRT5, TRIANGULAR_X, ZERO_DIAG_X
from helpers import random_contraction, random_positive_diagonal
from inversepoint import (
    DimensionError,
    F_map,
    Matrix,
    NonNegativityError,
    RowContext,
    ValidationError,
    ZeroRowError,
    b_value,
    f_gradient,
    f_value,
    residual,
    solve,
)


def ctx(index, diagonal, off):
    return RowContext(row_index=index, diagonal=diagonal, off_diagonal=np.asarray(off, float))


def test_row_context_from_matrix(triangular):
    c = RowContext.from_matrix(triangular, 1)
    assert c.row_index == 1
    assert c.diagonal == 1.0
    assert np.array_equal(c.off_diagonal, [1.0, 0.0])


@pytest.mark.parametrize("index", [-1, 3, 1.0, "0", True], ids=repr)
def test_row_context_from_matrix_takes_only_a_row_of_the_matrix(triangular, index):
    message = r"^row index must be an integer in \[0, 3\), got " + re.escape(repr(index)) + "$"
    with pytest.raises(ValidationError, match=message):
        RowContext.from_matrix(triangular, index)
    assert RowContext.from_matrix(triangular, np.int64(2)).off_diagonal.tolist() == [1.0, 1.0]


def test_row_context_rejects_negative_entries():
    with pytest.raises(NonNegativityError):
        ctx(0, -1.0, [0.0])
    with pytest.raises(NonNegativityError):
        ctx(0, 1.0, [-0.5])


def test_row_context_rejects_a_misshapen_or_non_finite_row():
    with pytest.raises(DimensionError, match="off_diagonal must be 1-d"):
        ctx(0, 1.0, [[0.5, 0.5]])
    for diagonal, off in ((float("nan"), [0.5]), (1.0, [float("inf")]), (1.0, [float("nan")])):
        with pytest.raises(ValidationError, match="^row 0 has non-finite entries$"):
            ctx(0, diagonal, off)


def test_row_context_reads_its_entries_through_the_package_readers():
    for diagonal, off in ((1.0, ["a", 1.0]), (1.0, [1 + 2j, 1.0]), ("x", [1.0]), (1j, [1.0])):
        with pytest.raises(ValidationError, match="^entries must be real numbers: "):
            RowContext(0, diagonal, off)
    with pytest.raises(DimensionError, match=r"diagonal a scalar, got shapes \(1,\) and \(1,\)$"):
        RowContext(0, [1.0], [1.0])


def test_row_context_of_a_1x1_matrix_has_no_off_diagonal():
    c = RowContext(0, np.float64(4.0), [])
    assert c.diagonal == 4.0 and type(c.diagonal) is float and c.off_diagonal.shape == (0,)
    assert f_value(c, []) == 0.5
    assert RowContext.from_matrix(Matrix([[4.0]]), 0).off_diagonal.shape == (0,)


def test_b_value_examples():
    assert b_value(ctx(0, 1.0, [0.0, 0.0]), [7.0, 9.0]) == 0.0
    # second row of the triangular example: only x_1 contributes
    assert b_value(ctx(1, 1.0, [1.0, 0.0]), [1.0, 123.0]) == 1.0
    assert b_value(ctx(0, 1.0, [3.0]), [0.2]) == pytest.approx(0.6, rel=1e-15)


def test_b_value_dimension_mismatch():
    with pytest.raises(DimensionError):
        b_value(ctx(0, 1.0, [1.0, 2.0]), [1.0])


def test_f_value_examples():
    assert f_value(ctx(0, 1.0, [0.0]), [5.0]) == 1.0
    golden = (SQRT5 - 1.0) / 2.0
    assert f_value(ctx(0, 1.0, [1.0]), [1.0]) == pytest.approx(golden, abs=1e-15)
    assert f_value(ctx(0, 0.0, [1.0]), [2.0]) == 0.5
    # third coordinate of the triangular example
    third = f_value(ctx(2, 1.0, [1.0, 1.0]), [1.0, golden])
    assert third == pytest.approx(TRIANGULAR_X[2], abs=1e-15)


def test_f_value_zero_row_error():
    with pytest.raises(ZeroRowError) as err:
        f_value(ctx(3, 0.0, [1.0, 0.0]), [0.0, 9.0])
    assert err.value.row == 3


def test_root_property_random():
    rng = np.random.default_rng(6)
    for _ in range(300):
        k = int(rng.integers(1, 5))
        diag = float(rng.uniform(0, 3)) if rng.random() < 0.7 else 0.0
        off = rng.uniform(0, 2, k)
        others = rng.uniform(0, 3, k)
        b = float(np.dot(off, others))
        if diag == 0.0 and b <= 0.0:
            continue
        t = f_value(ctx(0, diag, off), others)
        assert t > 0
        assert abs(diag * t * t + b * t - 1.0) <= 1e-12 * (1.0 + b + diag)


def test_f_gradient_examples():
    assert np.array_equal(f_gradient(ctx(0, 2.0, [0.0, 0.0]), [1.0, 4.0]), [0.0, 0.0])
    got = f_gradient(ctx(0, 0.0, [2.0]), [1.0])  # b = 2, so -(1/4)*2
    assert got == pytest.approx([-0.5], abs=1e-15)
    c = 1.7
    got = f_gradient(ctx(0, 1.0, [c]), [0.0])  # b = 0: (0 - 1)/2 * c
    assert got == pytest.approx([-c / 2.0], abs=1e-15)


def test_f_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for trial in range(60):
        k = int(rng.integers(1, 5))
        diag = 0.0 if trial % 2 == 0 else float(rng.uniform(0.2, 3))
        off = rng.uniform(0.1, 2, k)
        others = rng.uniform(0.1, 3, k)
        c = ctx(0, diag, off)
        grad = f_gradient(c, others)
        assert (grad <= 0).all()
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fd = (f_value(c, others + e) - f_value(c, others - e)) / (2 * h)
            assert abs(fd - grad[j]) <= 1e-5 * abs(grad[j])


def _exact_gradient(d, b):
    """-t/(2 d t + b) at the positive root t of d*t^2 + b*t = 1, to 60 digits."""
    with decimal.localcontext() as context:
        context.prec = 60
        d, b = decimal.Decimal(d), decimal.Decimal(b)
        t = 2 / (b + (b * b + 4 * d).sqrt())
        return float(-t / (2 * d * t + b))


def test_f_gradient_is_accurate_to_rounding():
    # The textbook (b/sqrt(b^2 + 4d) - 1)/(2d) cancels for b^2 >> d: at d = 1,
    # b = 1e8 it gives -5.55e-17 where the derivative is -1e-16.
    rng = np.random.default_rng(20)
    worst, checked = 0.0, 0
    for _ in range(4000):
        d, b = 10.0 ** rng.uniform(-150, 150, 2)
        if rng.random() < 0.1:
            d = 0.0
        exact = _exact_gradient(d, b)
        if not np.finfo(float).tiny <= abs(exact) < np.inf:
            continue
        got = f_gradient(ctx(0, d, [1.0]), [b])[0]
        worst = max(worst, abs(got - exact) / abs(exact))
        checked += 1
    assert checked > 3000
    assert worst <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0], ids=["nan", "inf", "-inf", "negative"])
def test_per_row_functions_and_F_map_reject_a_bad_coordinate(bad):
    message = "^coordinates must be finite and nonnegative$"
    for call in (b_value, f_value, f_gradient):
        with pytest.raises(ValidationError, match=message):
            call(ctx(0, 1.0, [1.0, 2.0]), [1.0, bad])
    with pytest.raises(ValidationError, match=message):
        F_map(Matrix(np.eye(3)), [1.0, bad, 1.0])


def test_F_map_identity_is_all_ones():
    out = F_map(Matrix(np.eye(4)), [0.3, 7.0, 0.0, 2.0])
    assert np.array_equal(out.values, np.ones(4))


def test_F_map_fixes_the_triangular_solution(triangular):
    out = F_map(triangular, TRIANGULAR_X)
    assert np.max(np.abs(out.values - TRIANGULAR_X)) <= 1e-15


def test_F_map_at_origin_is_inverse_sqrt_diagonal():
    m = Matrix([[4.0, 1.0], [2.0, 0.25]])
    out = F_map(m, [0.0, 0.0])
    assert out.values == pytest.approx([0.5, 2.0], rel=1e-15)


def test_F_map_zero_row_reports_offending_row():
    m = Matrix([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
    with pytest.raises(ZeroRowError) as err:
        F_map(m, [1.0, 1.0, 1.0])
    assert err.value.row == 1


def test_F_map_rejects_negative_inputs():
    from inversepoint import ValidationError

    with pytest.raises(NonNegativityError):
        F_map(Matrix([[1.0, -0.1], [0.0, 1.0]]), [1.0, 1.0])
    with pytest.raises(ValidationError):
        F_map(Matrix(np.eye(2)), [1.0, -1.0])


@pytest.mark.parametrize(
    "m, x",
    [
        ([[1.0, 1e308], [1e308, 1.0]], [1e10, 1e10]),  # b overflows: the root would be 0
        ([[1e308, 1.0], [1.0, 1.0]], [1e10, 1.0]),  # inf - inf: the root would be NaN
        ([[0.0, 5e-324], [5e-324, 0.0]], [1.0, 1.0]),  # 1/b exceeds the largest double
    ],
    ids=["zero", "nan", "inf"],
)
def test_F_map_reports_a_root_outside_the_double_range_as_an_overflow(m, x):
    # M and x are valid; the suite turns a RuntimeWarning into an error.
    with pytest.raises(OverflowError, match=r"^F\(x\) leaves the double range$"):
        F_map(m, x)


def test_residual_that_overflows_is_infinite_without_a_warning():
    assert residual([[1e308]], [1e10]) == np.inf
    assert np.isnan(residual([[1.0, 1.0], [1e308, 1.0]], [1e10, 0.0]))  # 0 * inf


def test_F_map_and_residual_reject_a_misshapen_vector():
    m = Matrix(np.eye(3))
    for call in (F_map, residual):
        with pytest.raises(DimensionError, match=r"expected a 1-d vector, got shape \(3, 1\)"):
            call(m, np.ones((3, 1)))
        with pytest.raises(DimensionError, match="vector has length 2, expected 3"):
            call(m, [1.0, 1.0])


def test_F_map_is_antitone_exactly():
    # x <= y componentwise implies F(y) <= F(x), exactly in floating point:
    # the row sums are monotone and the root formula is monotone in b.
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = random_positive_diagonal(rng, n)
        x = rng.uniform(0, 2, n)
        y = x + rng.uniform(0, 1, n)
        fx = F_map(m, x).values
        fy = F_map(m, y).values
        assert (fy <= fx).all()


def test_residual_examples(triangular, zero_diag):
    assert residual(Matrix(np.eye(3)), np.ones(3)) == 0.0
    assert residual(triangular, TRIANGULAR_X) <= 1e-14
    assert residual(zero_diag, ZERO_DIAG_X) <= 1e-14


def test_fixed_point_equivalence_on_solver_outputs(triangular, zero_diag, curves_2d):
    # residual small at x iff F(x) is close to x, both directions.
    for m in (triangular, zero_diag, curves_2d):
        x = solve(m).x.values
        assert residual(m, x) <= 1e-12
        assert np.max(np.abs(F_map(m, x).values - x)) <= 1e-11
        y = x * (1 + 1e-3)  # knock it off the fixed point
        assert residual(m, y) > 1e-5
        assert np.max(np.abs(F_map(m, y).values - y)) > 1e-5


def row_l1_lipschitz_bound(m):
    """max_i sum_{j != i} m_ij / (2 m_ii): the constant the mean-value
    argument actually yields when the gradient is paired with an inf-norm
    displacement (l1 norm of the gradient bound)."""
    a = m.entries
    d = np.diagonal(a)
    off = a / (2.0 * d[:, None])
    np.fill_diagonal(off, 0.0)
    return float(off.sum(axis=1).max())


def test_lipschitz_l1_bound_holds():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = random_contraction(rng, n)
        bound = row_l1_lipschitz_bound(m)
        for _ in range(40):
            a = rng.uniform(0, 2, n)
            b = rng.uniform(0, 2, n)
            num = np.max(np.abs(F_map(m, a).values - F_map(m, b).values))
            den = np.max(np.abs(a - b))
            assert num <= (bound + 1e-9) * den


def test_contraction_constant_is_sharp_for_2x2():
    # with a single off-diagonal entry per row the l1 and max gradient norms
    # coincide, so C is a genuine bound even at near-zero aligned points
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 500:
        a = rng.uniform(0.0, 2.0, (2, 2))
        d = np.diagonal(a)
        if not ((d > 0).all() and (a < 2.0 * d[:, None]).all()):
            continue
        m = Matrix(a)
        c = float(np.max(a / (2.0 * d[:, None])))
        u = 10.0 ** rng.uniform(-6, 2, 2)
        v = 10.0 ** rng.uniform(-6, 2, 2)
        num = np.max(np.abs(F_map(m, u).values - F_map(m, v).values))
        assert num <= (c + 1e-9) * np.max(np.abs(u - v))
        checked += 1


def test_max_ratio_constant_is_not_a_lipschitz_bound():
    """The per-pair constant C = max m_ij/(2 m_ii) does NOT bound the
    inf-norm ratio: with two large off-diagonal entries per row the
    gradient's l1 norm approaches 2C near the origin. Deterministic record
    of the counterexample (aligned pair near zero, C = 0.95, ratio -> 1.9)."""
    m = Matrix([[1.0, 1.9, 1.9], [1.9, 1.0, 1.9], [1.9, 1.9, 1.0]])
    c = 0.95
    a = np.full(3, 1e-4)
    b = np.full(3, 2e-4)
    ratio = np.max(np.abs(F_map(m, a).values - F_map(m, b).values)) / np.max(np.abs(a - b))
    assert ratio > c + 1e-9
    assert ratio == pytest.approx(1.9, rel=1e-3)
    # while the l1-based constant does bound it
    assert ratio <= row_l1_lipschitz_bound(m) + 1e-9
