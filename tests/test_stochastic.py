import numpy as np

from conftest import TRIANGULAR_X
from helpers import random_contraction, random_positive_diagonal, random_primitive
from inversepoint import Matrix, certify, diag_sandwich, matvec, residual, solve


def test_certify_identity_all_zero():
    cert = certify(Matrix(np.eye(3)), np.ones(3))
    assert cert.max_row_sum_defect == 0.0
    assert cert.eq2_defect == 0.0
    assert cert.inverse_defect == 0.0
    assert np.array_equal(cert.row_sums, np.ones(3))


def test_certify_triangular_closed_form(triangular):
    cert = certify(triangular, TRIANGULAR_X)
    assert cert.max_row_sum_defect <= 1e-13
    assert cert.eq2_defect <= 1e-13
    assert cert.inverse_defect <= 1e-13


def test_certify_perturbation_makes_all_defects_positive(curves_2d):
    x = solve(curves_2d).x.values.copy()
    x[0] += 0.1
    cert = certify(curves_2d, x)
    assert cert.max_row_sum_defect > 1e-3
    assert cert.eq2_defect > 1e-3
    assert cert.inverse_defect > 1e-3


def test_defect_equivalence_at_tolerance():
    # the three defects are the same failure measured three ways; they agree
    # within a factor 10 after the natural ||x||-scalings
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = random_positive_diagonal(rng, n)
        x = rng.uniform(0.5, 2.0, n)
        cert = certify(m, x)
        xmax = float(np.max(x))
        xmin = float(np.min(x))
        assert cert.eq2_defect <= 10 * cert.inverse_defect * xmax
        assert cert.inverse_defect <= 10 * cert.eq2_defect / xmin
        assert cert.max_row_sum_defect <= 10 * cert.inverse_defect * xmax + 1e-12
        assert cert.inverse_defect <= 10 * cert.max_row_sum_defect / xmin + 1e-12
        assert abs(cert.max_row_sum_defect - cert.eq2_defect) <= 1e-10 * (1 + cert.eq2_defect)


def test_scaling_consistency_on_converged_results(triangular, zero_diag, curves_2d, curves_3d):
    tol = 1e-12
    for m in (triangular, zero_diag, curves_2d, curves_3d):
        res = solve(m)
        cert = certify(m, res.x)
        bound = 10 * tol * max(1.0, float(np.max(res.x.values)) ** 2)
        assert cert.max_row_sum_defect <= bound
        assert cert.eq2_defect <= bound
        assert cert.inverse_defect <= bound


def test_certify_equals_the_sandwich_and_the_residuals(triangular, zero_diag):
    # certify computes from M and x directly; it must agree bitwise with the
    # public helpers that say what each defect means.
    rng = np.random.default_rng(43)
    mats = [triangular, zero_diag, random_positive_diagonal(rng, 150)]
    for recipe in (random_positive_diagonal, random_primitive, random_contraction):
        mats += [recipe(rng, int(rng.integers(2, 12))) for _ in range(10)]
    for m in mats:
        x = solve(m).x
        cert = certify(m, x)
        assert np.array_equal(cert.row_sums, diag_sandwich(m, x).entries.sum(axis=1))
        assert cert.eq2_defect == residual(m, x)
        assert cert.inverse_defect == float(np.max(np.abs(matvec(m, x) - 1.0 / x.values)))


def test_certify_reports_an_overflowing_product_as_infinite_defects():
    # M and x are both valid; diag(x) M diag(x) and Mx overflow.
    cert = certify(Matrix([[1e300, 1.0], [1.0, 1.0]]), [1e10, 1.0])
    assert np.isinf(cert.row_sums[0]) and cert.row_sums[1] == 1e10 + 1.0
    assert np.isinf([cert.max_row_sum_defect, cert.eq2_defect, cert.inverse_defect]).all()
    # Mx overflows where 1/x does (a subnormal x_0), and two overflows of
    # opposite sign meet in a row sum: NaN, not a RuntimeWarning.
    assert np.isnan(certify([[1.0, 1e300], [1.0, 1.0]], [1e-310, 1e10]).inverse_defect)
    assert np.isnan(certify([[1e300, -1e300], [1.0, 1.0]], [1e10, 1e10]).row_sums[0])
