import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import TRIANGULAR_X, ZERO_DIAG_X
from helpers import (
    default_start,
    random_contraction,
    random_positive_diagonal,
    random_primitive_positive_diagonal,
    wide_range_draws,
)
import inversepoint
from inversepoint import (
    ContractionPreconditionError,
    ConvergenceError,
    DimensionError,
    F_map,
    Matrix,
    NonNegativityError,
    SingularJacobianError,
    SolverConfig,
    ValidationError,
    ZeroRowError,
    diag_sandwich,
    multistart_uniqueness,
    residual,
    solve,
    solve_auto,
    solve_bracket,
    solve_contraction,
    solve_newton,
)
from inversepoint.solver import STALL_ROUNDS

INV_SQRT5 = 5.0 ** -0.5


def check_converged_invariants(m, res, tol=1e-12):
    assert res.converged
    assert res.residual <= tol
    x = res.x.values
    assert residual(m, x) <= tol
    assert np.max(np.abs(F_map(m, x).values - x)) <= 10 * tol * max(1.0, np.max(x))
    row_sums = diag_sandwich(m, res.x).entries.sum(axis=1)
    assert np.max(np.abs(row_sums - 1.0)) <= tol * m.n


def test_solverconfig_validation():
    with pytest.raises(ValidationError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValidationError, match="tol must be positive"):
        SolverConfig(tol=float("nan"))
    with pytest.raises(ValidationError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValidationError, match="max_iter must be at least 1"):
        SolverConfig(max_iter=float("nan"))  # the bracket's budget check would never fire
    with pytest.raises(ValidationError):
        SolverConfig(method="simplex")


def test_solve_identity_defaults():
    m = Matrix(np.eye(4))
    res = solve(m)
    assert np.array_equal(res.x.values, np.ones(4))
    assert res.residual == 0.0
    check_converged_invariants(m, res)


def test_solve_triangular_matches_closed_form(triangular):
    res = solve(triangular)
    assert np.max(np.abs(res.x.values - TRIANGULAR_X)) <= 1e-10
    assert (res.method_used, res.iterations) == ("newton", 3)
    check_converged_invariants(triangular, res)


def test_solve_zero_diag_matches_closed_form(zero_diag):
    res = solve(zero_diag)
    assert np.max(np.abs(res.x.values - ZERO_DIAG_X)) <= 1e-10
    assert (res.method_used, res.iterations) == ("newton", 2)
    check_converged_invariants(zero_diag, res)


def test_solve_curves_2d_lands_in_unit_box(curves_2d):
    res = solve(curves_2d)
    assert res.residual <= 1e-12
    assert ((res.x.values > 0) & (res.x.values < 1)).all()
    check_converged_invariants(curves_2d, res)


def test_solve_rejects_zero_row():
    with pytest.raises(ZeroRowError) as err:
        solve(Matrix([[1.0, 2.0], [0.0, 0.0]]))
    assert err.value.row == 1


def test_solve_rejects_negative_entries():
    with pytest.raises(NonNegativityError):
        solve(Matrix([[1.0, -0.5], [1.0, 1.0]]))


def test_solve_bracket_identity_converges_in_one_round():
    log = []
    res = solve_bracket(Matrix(np.eye(3)), bracket_log=log)
    assert res.converged
    assert res.iterations == 1
    assert np.array_equal(res.x.values, np.ones(3))
    assert np.array_equal(log[0].lower, np.zeros(3))
    assert np.array_equal(log[0].upper, np.ones(3))


def test_solve_bracket_triangular(triangular):
    res = solve_bracket(triangular)
    assert res.method_used == "bracket"
    assert np.max(np.abs(res.x.values - TRIANGULAR_X)) <= 1e-10
    check_converged_invariants(triangular, res)


def test_solve_bracket_counterexample_converges(counterexample):
    # The gap contracts at rate ~0.44 per round here (the symmetric mode's
    # derivative is beta/(beta+2) at the fixed point), so no stall occurs.
    res = solve_bracket(counterexample)
    assert res.method_used == "bracket"
    assert np.max(np.abs(res.x.values - INV_SQRT5)) <= 1e-10
    check_converged_invariants(counterexample, res)


def test_solve_bracket_nesting_invariant(curves_2d, curves_3d, counterexample):
    rng = np.random.default_rng(31)
    cases = [curves_2d, curves_3d, counterexample]
    cases += [random_positive_diagonal(rng, int(rng.integers(2, 6))) for _ in range(10)]
    for m in cases:
        log = []
        solve_bracket(m, bracket_log=log)
        for prev, cur in zip(log, log[1:]):
            assert (prev.lower <= cur.lower).all()
            assert (cur.lower <= cur.upper).all()
            assert (cur.upper <= prev.upper).all()


def test_solve_bracket_stall_falls_back_to_newton():
    # Near-zero diagonal: the bracket gap ratio tends to 1 - 3e-4 > 0.999,
    # which trips the stall rule; Newton must finish from the midpoint.
    m = Matrix([[1e-4, 1.0], [1.0, 1e-4]])
    res = solve_bracket(m)
    assert res.method_used == "newton"
    check_converged_invariants(m, res)
    # solution: x = (t, t) with t*(1e-4*t + t) = 1
    t = (1.0 + 1e-4) ** -0.5
    assert np.max(np.abs(res.x.values - t)) <= 1e-10


def test_solve_bracket_box_collapsed_to_a_point_stalls():
    # A tol below rounding is out of reach: F(x) == x closes the box to one
    # point after a round, and STALL_ROUNDS rounds later the stall rule hands
    # off to Newton, which cannot meet tol either.
    with pytest.raises(ConvergenceError, match=r"bracket stalled at gap 0\.000e\+00") as err:
        solve_bracket(Matrix([[2.0]]), SolverConfig(tol=1e-20))
    assert err.value.result.iterations == 1 + STALL_ROUNDS


def test_solve_bracket_zero_diagonal_rejected(zero_diag):
    with pytest.raises(ZeroRowError, match="use auto or newton instead") as err:
        solve_bracket(zero_diag)
    assert err.value.row == 0


def test_solve_bracket_names_the_first_zero_on_the_diagonal_without_applying_f(monkeypatch):
    # Row 1 is the first zero on the diagonal; the classification alone
    # rejects the matrix, before F is applied at all.
    monkeypatch.setattr("inversepoint._kernels.f_apply", None)
    m = Matrix([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ZeroRowError) as err:
        solve_bracket(m)
    assert err.value.row == 1
    assert str(err.value) == (
        "bracketing starts at the zero vector, where row 1 (zero diagonal) "
        "has no positive root; use auto or newton instead"
    )


def test_solve_bracket_budget_exhaustion_carries_best(curves_2d):
    with pytest.raises(ConvergenceError) as err:
        solve_bracket(curves_2d, SolverConfig(max_iter=3))
    best = err.value.result
    assert best is not None and not best.converged
    assert best.residual > 1e-12
    assert len(best.x.values) == 2


def test_solve_contraction_identity():
    res = solve_contraction(Matrix(np.eye(3)))
    assert res.iterations <= 2
    assert np.array_equal(res.x.values, np.ones(3))


def test_solve_contraction_triangular_iteration_bound(triangular):
    res = solve_contraction(triangular)
    assert np.max(np.abs(res.x.values - TRIANGULAR_X)) <= 1e-10
    limit = int(np.ceil(np.log(1e-12) / np.log(0.5))) + 2
    assert res.iterations <= limit


def test_solve_contraction_budget_error_carries_best(triangular):
    with pytest.raises(ConvergenceError, match="budget exhausted") as err:
        solve_contraction(triangular, SolverConfig(max_iter=1))
    best = err.value.result
    assert (best.method_used, best.iterations, best.converged) == ("contraction", 1, False)
    assert best.residual == best.trace[-1] > 1e-12


def test_a_nan_residual_never_counts_as_converged(triangular, monkeypatch):
    # NaN compares false with everything, so "r > tol" would read it as done.
    monkeypatch.setattr(inversepoint._kernels, "residual_inf", lambda m, x: float("nan"))
    # Both loops run until the box collapses, and Newton, which reads its own
    # defect, finishes; a budget below the collapse is spent instead.
    for solver in (solve_bracket, solve_contraction):
        res = solver(triangular)
        assert (res.method_used, res.converged) == ("newton", True)
        assert res.residual <= 1e-12
    with pytest.raises(ConvergenceError, match="budget exhausted"):
        solve_contraction(triangular, SolverConfig(max_iter=5))


def _contraction_by_hand(m):
    """solve_contraction at the default config, written out with the public
    F_map: x <- F(x) from F(0), the residual read at every iterate."""
    x = F_map(m, np.zeros(m.n)).values
    trace = [residual(m, x)]
    while trace[-1] > 1e-12 and len(trace) <= 10000:
        x = F_map(m, x).values
        trace.append(residual(m, x))
    return x, trace


def test_contraction_is_the_plain_iteration_bitwise():
    rng = np.random.default_rng(41)
    for _ in range(50):
        m = random_contraction(rng, int(rng.integers(2, 9)))
        res = solve_contraction(m)
        x, trace = _contraction_by_hand(m)
        assert res.converged and res.iterations == len(trace) - 1
        assert res.x.values.tobytes() == x.tobytes()
        assert res.trace.tobytes() == np.array(trace).tobytes()


def test_contraction_iterates_are_the_bracket_corners():
    # Round k of the bracket puts F^(k+1)(0) on one side of the box: the
    # contraction iterate of round k. At a tol out of reach the bracket runs
    # on until its box collapses, past the round where contraction stops.
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = random_contraction(rng, int(rng.integers(2, 9)))
        res = solve_contraction(m)
        log = []
        try:
            solve_bracket(m, SolverConfig(tol=1e-300), bracket_log=log)
        except ConvergenceError:
            pass
        newest = [box.lower if k % 2 else box.upper for k, box in enumerate(log)]
        assert len(newest) > res.iterations
        assert newest[res.iterations].tobytes() == res.x.values.tobytes()
        x = F_map(m, np.zeros(m.n)).values
        for corner in newest[: res.iterations + 1]:
            assert corner.tobytes() == x.tobytes()
            x = F_map(m, x).values


def test_contraction_hands_a_collapsed_box_to_newton():
    # F is constant on a 1x1, so the box collapses in the first round. Below
    # rounding the residual never meets tol: STALL_ROUNDS rounds later the
    # loop hands over to Newton, which cannot meet it either.
    with pytest.raises(ConvergenceError, match=r"^contraction stalled at gap 0\.000e\+00 and the Newton") as err:
        solve_contraction([[2.0]], SolverConfig(tol=1e-20))
    best = err.value.result
    assert (best.method_used, best.iterations, best.converged) == ("contraction", 1 + STALL_ROUNDS, False)
    assert best.x.values.tobytes() == F_map([[2.0]], [0.0]).values.tobytes()


def test_solve_contraction_rejects_counterexample(counterexample):
    with pytest.raises(ContractionPreconditionError):
        solve_contraction(counterexample)


def test_solve_contraction_gap_decay():
    # successive-iterate gaps shrink by at most C once past the first iterate
    rng = np.random.default_rng(32)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = random_contraction(rng, n)
        from inversepoint import contraction_condition

        _, c = contraction_condition(m)
        x = F_map(m, np.zeros(n)).values
        gaps = []
        for _ in range(60):
            nxt = F_map(m, x).values
            gaps.append(np.max(np.abs(nxt - x)))
            x = nxt
            if gaps[-1] < 1e-14:
                break
        for prev, cur in zip(gaps[1:], gaps[2:]):
            if prev > 1e-13:
                assert cur <= (c + 1e-9) * prev


def test_solve_newton_identity_quadratic_convergence():
    res = solve_newton(Matrix(np.eye(2)), [2.0, 2.0])
    assert res.converged
    assert res.iterations <= 6
    assert np.max(np.abs(res.x.values - 1.0)) <= 1e-12


def test_solve_newton_zero_diag(zero_diag):
    res = solve_newton(zero_diag, np.ones(3))
    assert np.max(np.abs(res.x.values - ZERO_DIAG_X)) <= 1e-10


def test_solve_newton_counterexample(counterexample):
    res = solve_newton(counterexample, np.ones(3))
    assert np.max(np.abs(res.x.values - INV_SQRT5)) <= 1e-10


def test_solve_newton_budget_error_carries_best(curves_2d):
    with pytest.raises(ConvergenceError) as err:
        solve_newton(curves_2d, [100.0, 100.0], SolverConfig(max_iter=1))
    best = err.value.result
    assert best is not None and not best.converged
    assert best.iterations == 1


def test_solve_newton_rejects_a_start_of_the_wrong_length(triangular):
    with pytest.raises(DimensionError, match="^vector has length 2, expected 3$"):
        solve_newton(triangular, [1.0, 1.0])


def test_bracket_fallback_whose_newton_pass_fails_carries_the_midpoint():
    # Entries spread over 600 decades: auto's Newton pass fails, the bracket
    # stalls, and Newton from the box midpoint cannot lower the log defect.
    with pytest.raises(ConvergenceError, match="Newton fallback failed") as err:
        solve(wide_range_draws()[0])
    cause = err.value.__cause__
    assert type(cause) is ConvergenceError and "line search" in str(cause)
    best = err.value.result
    assert (best.method_used, best.converged) == ("bracket", False)
    assert best.residual == best.trace[-1]


def test_solve_newton_default_start_is_autos_start(triangular):
    # Without x0, solve_newton starts where auto does: from 1/sqrt(rowsum(M))
    # refined by sweep pairs, which lower the start's defect here.
    res = solve_newton(triangular)
    assert np.array_equal(res.x.values, solve(triangular).x.values)
    raw = solve_newton(triangular, default_start(triangular.entries))
    pairs = len(res.trace) - 1 - res.iterations
    assert pairs >= 1 and res.trace[0] == raw.trace[0]
    assert res.trace[pairs] < raw.trace[0]
    assert np.max(np.abs(res.x.values / raw.x.values - 1.0)) <= 1e-13
    # solve_newton validates M as every solver does.
    with pytest.raises(ZeroRowError):
        solve_newton(Matrix([[1.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(NonNegativityError):
        solve_newton(Matrix([[1.0, -2.0], [1.0, 1.0]]))


def test_solve_auto_method_selection(triangular, zero_diag, counterexample):
    # Newton runs first; the counterexample has constant row sums, so the
    # start 1/sqrt(rowsum) is already the solution.
    for m, iterations in ((triangular, 3), (zero_diag, 2), (counterexample, 0)):
        res = solve_auto(m)
        assert (res.method_used, res.iterations) == ("newton", iterations)
    assert np.max(np.abs(res.x.values - INV_SQRT5)) <= 1e-10


def test_trace_is_monotone_enough_and_finite(triangular):
    res = solve(triangular)
    assert res.trace is not None
    assert np.isfinite(res.trace).all()
    assert res.trace[-1] <= 1e-12


def test_multistart_identity():
    first, dist = multistart_uniqueness(Matrix(np.eye(3)), starts=20)
    assert first.converged
    assert dist <= 1e-10


def test_multistart_zero_diag(zero_diag):
    first, dist = multistart_uniqueness(zero_diag, starts=20)
    assert dist <= 1e-8
    assert np.max(np.abs(first.x.values - ZERO_DIAG_X)) <= 1e-8


def test_multistart_triangular_unique_despite_non_primitivity(triangular):
    first, dist = multistart_uniqueness(triangular, starts=20)
    assert dist <= 1e-8
    assert np.max(np.abs(first.x.values - TRIANGULAR_X)) <= 1e-8


def _reducible_positive_diagonal(rng, n):
    """P T P^T for an upper-triangular T with a positive diagonal, about 30%
    of its upper entries zero, and a random permutation P."""
    t = np.triu(rng.uniform(0.0, 2.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.7), 1)
    t[np.diag_indices(n)] = rng.uniform(0.05, 2.0, n)
    p = rng.permutation(n)
    return Matrix(t[np.ix_(p, p)])


def test_a_positive_diagonal_alone_gives_one_solution():
    # README proves existence and uniqueness for any positive diagonal, with
    # no primitivity; these inputs are all reducible.
    rng = np.random.default_rng(2101)
    for _ in range(300):
        m = _reducible_positive_diagonal(rng, int(rng.integers(2, 7)))
        assert not inversepoint.classify(m).primitive
        first, spread = multistart_uniqueness(m, starts=20)
        assert first.converged
        assert spread <= 1e-10 * first.x.values.max(), (m, spread)


def test_multistart_rejects_no_starts(triangular):
    with pytest.raises(ValidationError, match="starts must be at least 1"):
        multistart_uniqueness(triangular, starts=0)


@pytest.mark.parametrize("starts", [float("nan"), 2.5, True])
def test_multistart_rejects_a_count_that_is_not_a_positive_integer(triangular, starts):
    with pytest.raises(ValidationError, match="^starts must be at least 1 \\(an integer\\)"):
        multistart_uniqueness(triangular, starts=starts)
    first, _ = multistart_uniqueness(triangular, starts=np.int64(2))
    assert first.converged


@pytest.mark.parametrize("max_iter", [2.5, float("inf"), True])
def test_solverconfig_rejects_a_count_that_is_not_a_positive_integer(max_iter):
    with pytest.raises(ValidationError, match="^max_iter must be at least 1 \\(an integer\\)"):
        SolverConfig(max_iter=max_iter)
    config = SolverConfig(max_iter=np.int64(3))
    assert type(config.max_iter) is int and config.max_iter == 3


def _pairwise_spread(sol):
    return np.max(np.abs(sol[:, None] - sol[None, :]))


def test_multistart_spread_is_the_largest_pairwise_distance(zero_diag):
    # The coordinate range max - min rounds to the same double as the largest
    # pairwise difference, also where the solutions differ in their last bits.
    rng = np.random.default_rng(2602)
    for _ in range(500):
        starts, n = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        if rng.uniform() < 0.5:  # a few ulps apart, as converged solutions are
            sol = 10.0 ** rng.uniform(-3, 3, n) * (1.0 + rng.integers(-4, 5, (starts, n)) * 2.0**-52)
        else:
            sol = 10.0 ** rng.uniform(-300, 300, (starts, n))
        assert np.max(sol.max(axis=0) - sol.min(axis=0)) == _pairwise_spread(sol)
    _, spread = multistart_uniqueness(zero_diag, starts=12, seed=7)
    draws = np.random.default_rng(7)
    sol = [solve_newton(zero_diag, 10.0 ** draws.uniform(-2.0, 2.0, 3)).x.values for _ in range(12)]
    assert spread == _pairwise_spread(np.array(sol))


def test_multistart_seed_controls_starts(zero_diag):
    r1 = multistart_uniqueness(zero_diag, starts=4, seed=5)
    r2 = multistart_uniqueness(zero_diag, starts=4, seed=5)
    r3 = multistart_uniqueness(zero_diag, starts=4, seed=6)
    assert r1[0].iterations == r2[0].iterations
    assert r1[1] == r2[1]
    # different seed, same fixed point
    assert np.max(np.abs(r1[0].x.values - r3[0].x.values)) <= 1e-8


def test_multistart_draws_its_starts_from_its_seed(triangular, monkeypatch):
    import inversepoint.solver as solver_module

    starts = []

    def recording(m, x0, config, *, _cls):
        starts.append(x0)
        return real(m, x0, config, _cls=_cls)

    real = solver_module.solve_newton
    monkeypatch.setattr(solver_module, "solve_newton", recording)
    multistart_uniqueness(triangular, starts=3, seed=7)
    draws = np.random.default_rng(7)
    assert all(np.array_equal(x0, 10.0 ** draws.uniform(-2.0, 2.0, 3)) for x0 in starts)
    assert len(starts) == 3


def test_solverconfig_holds_only_the_settings_every_solver_reads():
    assert [f.name for f in fields(SolverConfig)] == ["tol", "max_iter", "method"]
    with pytest.raises(TypeError):
        SolverConfig(seed=1)


def test_solve_1x1():
    res = solve(Matrix([[5.0]]))
    assert res.x.values[0] == pytest.approx(5.0 ** -0.5, abs=1e-14)
    check_converged_invariants(Matrix([[5.0]]), res)


def test_solve_period_two_pattern_finds_a_solution():
    # [[0,1],[1,0]] has a whole hyperbola x1*x2 = 1 of solutions (it is not
    # primitive, so no uniqueness claim); the iteration lands on one of them
    res = solve(Matrix([[0, 1], [1, 0]]))
    assert res.converged
    assert res.x.values[0] * res.x.values[1] == pytest.approx(1.0, abs=1e-12)


def test_unsolvable_system_fails_honestly():
    # rows demand 2*x1*x2 = 1 and 3*x1*x2 = 1 simultaneously: no solution;
    # the fixed-point iteration diverges, Newton bottoms out, and the error
    # carries the best iterate instead of looping forever
    with pytest.raises(ConvergenceError) as err:
        solve(Matrix([[0, 2], [3, 0]]), SolverConfig(max_iter=2000))
    best = err.value.result
    assert best is not None and not best.converged
    assert best.residual > 0.1


def test_random_positive_diagonal_solves_cleanly():
    rng = np.random.default_rng(33)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = random_primitive_positive_diagonal(rng, n)
        res = solve(m)
        check_converged_invariants(m, res)


def test_solve_is_scale_invariant():
    # scaling M by s scales the solution by 1/sqrt(s); the residual is
    # scale-free because each row equation normalizes its product to 1
    rng = np.random.default_rng(34)
    a = rng.uniform(0.0, 2.0, (4, 4))
    a[np.diag_indices(4)] += 0.1
    base = solve(Matrix(a)).x.values
    for s in (1e-8, 1e4, 1e8):
        res = solve(Matrix(a * s))
        check_converged_invariants(Matrix(a * s), res)
        assert np.max(np.abs(res.x.values - base / np.sqrt(s))) <= 1e-10 * np.max(base / np.sqrt(s))


def test_solve_huge_zero_diagonal_is_not_a_zero_row():
    # At scale 1e300 the system must not read as having a vanishing row
    # (ZeroRowError). Each row reads 2e300 * x^2 = 1 at the solution.
    m = Matrix(1e300 * np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    res = solve(m)
    check_converged_invariants(m, res)
    assert np.max(np.abs(res.x.values / (1e-150 / np.sqrt(2.0)) - 1.0)) <= 1e-15


def test_solve_newton_singular_jacobian_raises():
    # The Jacobian rows are [x2, x1] twice: singular at every point.
    with pytest.raises(SingularJacobianError) as err:
        solve_newton(Matrix([[0, 1], [1, 0]]), [1.0, 2.0])
    assert isinstance(err.value, ConvergenceError)
    best = err.value.result
    assert (best.method_used, best.iterations, best.converged) == ("newton", 0, False)
    assert np.array_equal(best.x.values, [1.0, 2.0])


def test_fixed_point_fallback_on_singular_jacobian_carries_best():
    # Auto has no fallback without a positive diagonal, so Newton's own error
    # ends the solve. Any Jacobian of this 2-cycle is singular. Newton starts
    # at 1/sqrt(rowsum) = (1/sqrt(2), 1): a Sinkhorn pair returns to it, so no
    # pair lowers the defect, and the half step to (2^-3/4, 2^1/4) has the
    # same log defect (+-log sqrt(2)), so it is dropped too.
    with pytest.raises(SingularJacobianError, match="Jacobian is singular") as err:
        solve(Matrix([[0, 2], [1, 0]]))
    best = err.value.result
    assert best.method_used == "newton" and not best.converged
    assert best.x.values.tobytes() == default_start([[0, 2], [1, 0]]).tobytes()
    assert best.residual == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-15)
    assert len(best.trace) == 1


def test_classify_and_validate_once_per_solve(monkeypatch, triangular, zero_diag):
    import inversepoint.solver as solver_module

    calls = {"classify": 0, "validate_solvable": 0}

    def counting(name):
        original = getattr(solver_module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(solver_module, name, counting(name))
    weak = Matrix([[1e-4, 1], [1, 1e-4]])
    ones_off_diagonal = Matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    # (method_used, whether auto's Newton pass fails, run): the failing pass
    # sends auto to the bracket, or to the bracket and its Newton hand-off;
    # with a zero diagonal it re-raises Newton's error, whose result counts.
    runs = [
        ("newton", False, lambda: solve(triangular)),
        ("newton", False, lambda: solve(weak)),
        ("newton", False, lambda: solve(zero_diag)),
        ("newton", False, lambda: solve(ones_off_diagonal)),
        ("newton", False, lambda: multistart_uniqueness(zero_diag, starts=20)[0]),
        ("bracket", True, lambda: solve(triangular)),
        ("newton", True, lambda: solve(weak)),
        ("newton", True, lambda: solve(zero_diag)),
        ("newton", True, lambda: solve(ones_off_diagonal)),
    ]
    newton_calls = _first_newton_fails(monkeypatch, ConvergenceError)
    for method, fails, run in runs:
        calls.update(classify=0, validate_solvable=0)
        # Only the first solve_newton call after a reset fails.
        newton_calls[:] = [] if fails else [None]
        assert _result_or_error_result(run).method_used == method
        assert calls == {"classify": 1, "validate_solvable": 1}, method


def _result_or_error_result(run):
    try:
        return run()
    except ConvergenceError as err:
        return err.result


def _first_newton_fails(monkeypatch, error):
    """Make auto's first solve_newton call raise error, carrying that call's
    result marked as not converged; later calls (the bracket's hand-off) run
    Newton. Returns the max_iter of each call."""
    import inversepoint.solver as solver_module

    original = solver_module.solve_newton
    budgets = []

    def first_fails(M, x0, config, **kwargs):
        budgets.append(config.max_iter)
        res = original(M, x0, config, **kwargs)
        if len(budgets) == 1:
            raise error("newton: failed on purpose", result=replace(res, converged=False))
        return res

    monkeypatch.setattr(solver_module, "solve_newton", first_fails)
    return budgets


FALLBACK_CASES = [
    ("triangular", "bracket", "bracket"),
    ("counterexample", "bracket", "bracket"),
    # The bracket stalls and hands off to Newton.
    ("weak_diagonal", "bracket", "newton"),
]


@pytest.fixture
def weak_diagonal():
    return Matrix([[1e-4, 1.0], [1.0, 1e-4]])


@pytest.mark.parametrize("error", [ConvergenceError, SingularJacobianError])
@pytest.mark.parametrize("case, method, method_used", FALLBACK_CASES)
def test_auto_fallback_returns_the_iteration_result(request, monkeypatch, error, case, method, method_used):
    m = request.getfixturevalue(case)
    expected = solve(m, SolverConfig(method=method))
    budgets = _first_newton_fails(monkeypatch, error)
    res = solve(m)
    assert budgets[0] == SolverConfig().max_iter
    assert (res.method_used, res.iterations) == (expected.method_used, expected.iterations)
    assert res.method_used == method_used
    assert res.x.values.tobytes() == expected.x.values.tobytes()
    assert res.residual == expected.residual
    check_converged_invariants(m, res)


@pytest.mark.parametrize("error", [ConvergenceError, SingularJacobianError])
def test_auto_without_positive_diagonal_raises_newtons_error(monkeypatch, zero_diag, error):
    budgets = _first_newton_fails(monkeypatch, error)
    with pytest.raises(error, match="failed on purpose") as err:
        solve(zero_diag)
    assert len(budgets) == 1
    assert err.value.result.method_used == "newton" and not err.value.result.converged


def _one_zero_diagonal(rng, n):
    a = random_positive_diagonal(rng, n).entries.copy()
    a[0, 0] = 0.0
    return Matrix(a)


def _zero_diagonal(rng, n):
    a = rng.uniform(0.0, 2.0, (n, n))
    a[np.diag_indices(n)] = 0.0
    return Matrix(a)


def _weak_diagonal(rng, n):
    a = rng.uniform(0.0, 2.0, (n, n))
    a[np.diag_indices(n)] = 1e-4
    return Matrix(a)


# Auto on seeded inputs of each kind, n = rng.integers(2, 9): (recipe, seed,
# fallback method_used, fallback iterations, Newton steps). Auto's first pass,
# log-space Newton, solves each input in the given number of steps after the
# sweeps of its start. With that
# pass failing, a positive diagonal sends auto to the bracket, whose
# iterations are pinned only where no Newton step runs (the weak diagonals
# reach Newton through the bracket's hand-off); a zero diagonal entry makes
# auto re-raise Newton's error, whose result is Newton's.
PINNED_PATHS = [
    (random_contraction, 1, "bracket", 54, 2),
    (random_contraction, 2, "bracket", 73, 0),
    (random_contraction, 3, "bracket", 69, 0),
    (random_positive_diagonal, 1, "bracket", 52, 0),
    (random_positive_diagonal, 2, "bracket", 80, 0),
    (random_positive_diagonal, 3, "bracket", 94, 0),
    (_one_zero_diagonal, 1, "newton", None, 0),
    (_one_zero_diagonal, 2, "newton", None, 0),
    (_one_zero_diagonal, 3, "newton", None, 0),
    (_zero_diagonal, 1, "newton", None, 3),
    (_zero_diagonal, 2, "newton", None, 3),
    (_zero_diagonal, 3, "newton", None, 2),
    (_weak_diagonal, 1, "newton", None, 3),
    (_weak_diagonal, 2, "newton", None, 3),
    (_weak_diagonal, 3, "newton", None, 2),
]


def _pinned_input(recipe, seed):
    rng = np.random.default_rng(seed)
    return recipe(rng, int(rng.integers(2, 9)))


@pytest.mark.parametrize(
    "recipe, seed, method, iterations, steps",
    PINNED_PATHS,
    ids=[f"{r.__name__}-{s}-{m}-{i}" for r, s, m, i, _ in PINNED_PATHS],
)
def test_auto_paths_are_pinned(monkeypatch, recipe, seed, method, iterations, steps):
    m = _pinned_input(recipe, seed)
    res = solve(m)
    check_converged_invariants(m, res)
    assert (res.method_used, res.iterations) == ("newton", steps)
    _first_newton_fails(monkeypatch, ConvergenceError)
    if (np.diagonal(m.entries) > 0).all():
        res = solve(m)
        check_converged_invariants(m, res)
    else:
        with pytest.raises(ConvergenceError, match="failed on purpose") as err:
            solve(m)
        res = err.value.result
        assert (res.iterations, res.converged) == (steps, False)
    assert res.method_used == method
    if iterations is not None:
        assert res.iterations == iterations


def _ufunc_reductions(run):
    """(run(), the number of calls of a ufunc's reduce or reduceat it made)."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), np.ufunc):
            count += arg.__name__ in ("reduce", "reduceat")

    sys.setprofile(profile)
    try:
        return run(), count
    finally:
        sys.setprofile(None)


def test_a_solve_reduces_no_vector_through_a_ufunc():
    # A ufunc reduction spends ~1 us on set-up, so vectors are reduced by
    # argmax and argmin (_kernels.vmax and vmin). Only the reductions over
    # M's n^2 entries remain, as many whatever the number of Newton steps or
    # bracket rounds.
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 2.0, (5, 5))
    np.fill_diagonal(a, 0.05)
    res, count = _ufunc_reductions(lambda: solve(a))
    assert res.converged and res.iterations >= 3
    assert count == 2  # classify's min and row maxima; the start's row sums are a product
    # Without a positive diagonal, classify takes its off-diagonal column
    # minima and one maximum instead.
    np.fill_diagonal(a, 0.0)
    res, count = _ufunc_reductions(lambda: solve(a))
    assert res.converged and not res.classification.positive_diagonal
    assert count == 2
    b = np.array([[1e-4, 1.0, 0.5], [1.0, 1e-4, 1.0], [0.5, 1.0, 1e-4]])
    res, count = _ufunc_reductions(lambda: solve(b, SolverConfig(method="bracket")))
    assert res.converged and res.iterations >= 1000
    assert count == 2  # the hand-off to Newton starts from the bracket's own point


def test_converged_residual_is_the_last_trace_entry_bitwise():
    # Every loop ends on the residual max|x*(Mx) - 1| of the point it returns,
    # on M itself, and the result reads it from the trace: the same bits as a
    # fresh evaluation on M.
    from test_krylov import _near_bipartite  # test_krylov imports this module

    small = [_pinned_input(recipe, seed) for recipe, seed, *_ in PINNED_PATHS]
    runs = [(m, method) for m in [*small, Matrix(_near_bipartite(200, 1e-4))] for method in ("auto", "newton")]
    runs += [(m, "bracket") for m in small if (np.diagonal(m.entries) > 0).all()]
    runs.append((Matrix([[1e-4, 1.0], [1.0, 1e-4]]), "bracket"))  # stalls, hands off to Newton
    used = set()
    for m, method in runs:
        res = solve(m, SolverConfig(method=method))
        x = res.x.values
        assert res.converged and res.residual == res.trace[-1]
        assert res.residual == float(np.abs(x * (m.entries @ x) - 1.0).max())
        used.add((method, res.method_used))
    assert used == {("auto", "newton"), ("newton", "newton"), ("bracket", "bracket"), ("bracket", "newton")}
