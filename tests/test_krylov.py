"""Newton steps by matrix-free GMRES: from n = KRYLOV_MIN_N on, solve_newton
takes its step from _kernels.krylov_step and uses LAPACK only when GMRES
gives up. The two paths must agree on x up to the conditioning of the
problem, and the LAPACK path must stay what it was.

The sweeps of the default start solve dense inputs without a Newton step, so
the dense tests start Newton from 1/sqrt(rowsum(M)) explicitly (an explicit
start is never swept) and check that steps ran."""

import numpy as np
import pytest

import inversepoint.solver as solver_module
from helpers import default_start
from inversepoint import Matrix, SingularJacobianError, solve, solve_newton
from inversepoint import _kernels
from test_solver import check_converged_invariants


def _dense(n, seed):
    # Off-diagonal U(0, 1), diagonal U(0.05, 0.3), as in the size grid.
    rng = np.random.default_rng([n, seed])
    a = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(a, rng.uniform(0.05, 0.3, n))
    return a


def _near_bipartite(n, eps):
    # Two blocks of n/2 nodes joined by U(0.1, 1) edges, plus eps on the
    # diagonal: as eps -> 0 the pattern becomes bipartite and I + S singular.
    rng = np.random.default_rng([n, 7])
    h = n // 2
    a = np.zeros((n, n))
    a[:h, h:] = rng.uniform(0.1, 1.0, (h, n - h))
    a[h:, :h] = rng.uniform(0.1, 1.0, (n - h, h))
    np.fill_diagonal(a, eps)
    return a


def _lu_only(monkeypatch):
    monkeypatch.setattr(solver_module, "KRYLOV_MIN_N", np.iinfo(np.int64).max)


def _unswept(a):
    return solve_newton(a, default_start(a))


def _counting_krylov_steps(monkeypatch):
    calls = []
    original = _kernels.krylov_step

    def counted(*args):
        calls.append(args[0].shape[0])
        return original(*args)

    monkeypatch.setattr(_kernels, "krylov_step", counted)
    return calls


@pytest.mark.parametrize("n, seed", [(200, 1), (200, 2), (400, 1)])
def test_krylov_steps_agree_with_lapack_steps(monkeypatch, n, seed):
    a = _dense(n, seed)
    calls = _counting_krylov_steps(monkeypatch)
    res = _unswept(a)
    check_converged_invariants(Matrix(a), res)
    assert res.iterations >= 2 and len(calls) == res.iterations
    _lu_only(monkeypatch)
    lu = _unswept(a)
    assert lu.iterations >= 2 and len(calls) == res.iterations
    assert np.max(np.abs(res.x.values / lu.x.values - 1.0)) <= 1e-11


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_krylov_steps_on_a_near_bipartite_matrix(monkeypatch, eps):
    # Two points whose log defects are at most r1 and r2 lie within
    # kappa * (r1 + r2) of each other in log x, to first order, with
    # kappa = ||(I + S)^-1||_inf at the solution (about 60 here): the
    # residual pins x no closer than that.
    a = _near_bipartite(200, eps)
    res = solve(a)
    check_converged_invariants(Matrix(a), res)
    _lu_only(monkeypatch)
    lu = solve(a)
    x = lu.x.values
    kappa = np.max(np.abs(np.linalg.inv(np.eye(200) + x[:, None] * a * x[None, :])).sum(axis=1))
    gap = np.max(np.abs(np.log(res.x.values / x)))
    assert gap <= kappa * (res.residual + lu.residual) and gap <= 1e-11


def test_krylov_giving_up_is_bitwise_the_lapack_path(monkeypatch):
    a = _dense(200, 3)
    monkeypatch.setattr(_kernels, "krylov_step", lambda *args: None)
    fallback = _unswept(a)
    _lu_only(monkeypatch)
    lu = _unswept(a)
    assert lu.iterations >= 2
    assert np.array_equal(fallback.x.values, lu.x.values)
    assert (fallback.iterations, fallback.residual) == (lu.iterations, lu.residual)


def test_non_finite_krylov_step_raises_with_the_iterate(monkeypatch):
    a = _dense(solver_module.KRYLOV_MIN_N, 1)
    start = default_start(a)
    monkeypatch.setattr(_kernels, "krylov_step", lambda a, x, *rest: np.full(x.size, np.inf))
    with pytest.raises(SingularJacobianError) as err:
        solve_newton(a, start)
    best = err.value.result
    assert (best.method_used, best.iterations, best.converged) == ("newton", 0, False)
    assert np.array_equal(best.x.values, start)


def test_krylov_starts_at_its_threshold(monkeypatch):
    calls = _counting_krylov_steps(monkeypatch)
    n = solver_module.KRYLOV_MIN_N
    for size in (n - 1, n):
        res = _unswept(_dense(size, 1))
        assert res.converged and res.iterations >= 2
    assert calls and set(calls) == {n}


@pytest.mark.parametrize("j", [-400, 5, 400])
def test_power_of_four_scale_law_is_bitwise_at_n400(j):
    a = _dense(400, 2)
    x = solve(a).x.values
    assert np.array_equal(solve(np.ldexp(a, 2 * j)).x.values, np.ldexp(x, -j))


# (eps, Newton steps, defect evaluations) of auto on the near-bipartite
# matrix. The default start and its sweep pairs form their products directly,
# so the evaluations are the close of the sweep and the line-search trials.
# Uncapped, the first full steps overflow and the line search halves them
# many times: (7, 14), (8, 26) and (7, 33) with NEWTON_MAX_STEP = inf.
CAPPED_STEP_COUNTS = [(1e-2, 6, 8), (1e-4, 5, 7), (1e-6, 8, 12)]


@pytest.mark.parametrize("eps, steps, defects", CAPPED_STEP_COUNTS, ids=[str(c[0]) for c in CAPPED_STEP_COUNTS])
def test_capped_steps_save_halvings_on_near_bipartite_inputs(monkeypatch, eps, steps, defects):
    calls = []
    original = _kernels.quad_defect

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(_kernels, "quad_defect", counted)
    res = solve(_near_bipartite(200, eps))
    assert res.converged and (res.iterations, len(calls)) == (steps, defects)


class _LoggedProducts(np.ndarray):
    """A matrix that logs the vector of every product formed with it, as
    m.dot(v) or as m @ v."""

    def dot(self, v, out=None):
        self.vectors.append(np.array(v))
        return np.asarray(self).dot(v, out)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[0] is self:
            self.vectors.append(np.array(inputs[1]))
        inputs = [np.asarray(v) if isinstance(v, _LoggedProducts) else v for v in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("n", [60, 200])
def test_each_product_with_m_is_formed_once(monkeypatch, n):
    # Below KRYLOV_MIN_N every step is an LU solve, from it on a GMRES run.
    # Each step reuses the product of its accepted trial, so a solve forms one
    # product per defect evaluation plus one per GMRES iteration, and never
    # two on the same vector.
    a = _dense(n, 1)
    mtx = Matrix(a)
    logged = a.view(_LoggedProducts)
    logged.vectors = []
    object.__setattr__(mtx, "entries", logged)
    defects, gmres, jacobians = [], [], []
    quad_defect, krylov_step, newton_system = _kernels.quad_defect, _kernels.krylov_step, _kernels.newton_system

    def counted_defect(m, x):
        defects.append(None)
        return quad_defect(m, x)

    def counted_krylov(*args):
        before = len(logged.vectors)
        s = krylov_step(*args)
        gmres.extend(logged.vectors[before:])
        return s

    def counted_system(*args):
        before = len(logged.vectors)
        jac = newton_system(*args)
        jacobians.append(len(logged.vectors) - before)
        return jac

    monkeypatch.setattr(_kernels, "quad_defect", counted_defect)
    monkeypatch.setattr(_kernels, "krylov_step", counted_krylov)
    monkeypatch.setattr(_kernels, "newton_system", counted_system)
    res = solve_newton(mtx, default_start(a))
    assert res.converged and res.iterations >= 2
    if n < solver_module.KRYLOV_MIN_N:
        assert not gmres and jacobians == [0] * res.iterations
    else:
        assert gmres and not jacobians
    assert len(logged.vectors) == len(defects) + len(gmres)
    distinct = {v.tobytes() for v in logged.vectors}
    assert len(distinct) == len(logged.vectors)
