import numpy as np
import pytest

from conftest import TRIANGULAR_X, ZERO_DIAG_X
from helpers import random_contraction, random_positive_diagonal, random_primitive_positive_diagonal
from inversepoint import (
    ContractionPreconditionError,
    ConvergenceError,
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
    with pytest.raises(ValidationError):
        SolverConfig(max_iter=0)
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


def test_solve_bracket_zero_diagonal_rejected(zero_diag):
    with pytest.raises(ZeroRowError):
        solve_bracket(zero_diag)


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


def test_solve_auto_method_selection(triangular, zero_diag, counterexample):
    # Newton runs first; the counterexample has constant row sums, so the
    # start 1/sqrt(rowsum) is already the solution.
    for m, iterations in ((triangular, 3), (zero_diag, 2), (counterexample, 0)):
        res = solve_auto(m)
        assert (res.method_used, res.iterations) == ("newton", iterations)
    assert np.max(np.abs(res.x.values - INV_SQRT5)) <= 1e-10


def test_solve_fixed_point_direct(zero_diag):
    res = solve(zero_diag, SolverConfig(method="fixed_point"))
    assert res.method_used == "fixed_point"
    check_converged_invariants(zero_diag, res)


def test_solve_fixed_point_budget_raises(zero_diag):
    with pytest.raises(ConvergenceError):
        solve(zero_diag, SolverConfig(method="fixed_point", max_iter=3))


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


def test_multistart_seed_controls_starts(zero_diag):
    r1 = multistart_uniqueness(zero_diag, SolverConfig(seed=5), starts=4)
    r2 = multistart_uniqueness(zero_diag, SolverConfig(seed=5), starts=4)
    r3 = multistart_uniqueness(zero_diag, SolverConfig(seed=6), starts=4)
    assert r1[0].iterations == r2[0].iterations
    assert r1[1] == r2[1]
    # different seed, same fixed point
    assert np.max(np.abs(r1[0].x.values - r3[0].x.values)) <= 1e-8


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_solve_huge_zero_diagonal_is_not_a_zero_row():
    # At scale 1e300, b * b overflows in the root update of the iterations;
    # that must not read as a vanishing row (ZeroRowError). Each row reads
    # 2e300 * x^2 = 1 at the solution.
    m = Matrix(1e300 * np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    res = solve(m)
    check_converged_invariants(m, res)
    assert np.max(np.abs(res.x.values / (1e-150 / np.sqrt(2.0)) - 1.0)) <= 1e-15


def test_solve_newton_singular_jacobian_raises():
    # The Jacobian rows are [x2, x1] twice: singular at every point.
    with pytest.raises(SingularJacobianError):
        solve_newton(Matrix([[0, 1], [1, 0]]), [1.0, 2.0])


def test_fixed_point_fallback_on_singular_jacobian_carries_best():
    # The iteration from all-ones diverges; its best iterate (0.5, 1) has the
    # Jacobian [[2, 1], [1, 0.5]], so the Newton fallback fails at once.
    with pytest.raises(ConvergenceError) as err:
        solve(Matrix([[0, 2], [1, 0]]))
    assert "Jacobian" in str(err.value) and "singular" in str(err.value)
    best = err.value.result
    assert best.method_used == "fixed_point" and not best.converged
    assert np.array_equal(best.x.values, [0.5, 1.0])


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
    # sends auto to contraction, bracket -> Newton, fixed point and fixed
    # point -> Newton.
    runs = [
        ("newton", False, lambda: solve(triangular)),
        ("newton", False, lambda: solve(weak)),
        ("newton", False, lambda: solve(zero_diag)),
        ("newton", False, lambda: solve(ones_off_diagonal)),
        ("newton", False, lambda: multistart_uniqueness(zero_diag, starts=20)[0]),
        ("contraction", True, lambda: solve(triangular)),
        ("newton", True, lambda: solve(weak)),
        ("fixed_point", True, lambda: solve(zero_diag)),
        ("newton", True, lambda: solve(ones_off_diagonal)),
    ]
    newton_calls = _first_newton_fails(monkeypatch, ConvergenceError)
    for method, fails, run in runs:
        calls.update(classify=0, validate_solvable=0)
        # Only the first solve_newton call after a reset fails.
        newton_calls[:] = [] if fails else [None]
        assert run().method_used == method
        assert calls == {"classify": 1, "validate_solvable": 1}, method


def _first_newton_fails(monkeypatch, error):
    """Make auto's first solve_newton call raise error; later calls (the
    hand-offs of the fallback paths) run Newton. Returns the max_iter of each
    call."""
    import inversepoint.solver as solver_module

    original = solver_module.solve_newton
    budgets = []

    def first_fails(M, x0, config, **kwargs):
        budgets.append(config.max_iter)
        if len(budgets) == 1:
            raise error("newton: failed on purpose")
        return original(M, x0, config, **kwargs)

    monkeypatch.setattr(solver_module, "solve_newton", first_fails)
    return budgets


FALLBACK_CASES = [
    ("triangular", "contraction", "contraction"),
    ("counterexample", "bracket", "bracket"),
    ("zero_diag", "fixed_point", "fixed_point"),
    # The bracket stalls and hands off to Newton.
    ("weak_diagonal", "bracket", "newton"),
]


@pytest.fixture
def weak_diagonal():
    return Matrix([[1e-4, 1.0], [1.0, 1e-4]])


@pytest.mark.parametrize("error", [ConvergenceError, SingularJacobianError])
@pytest.mark.parametrize("case, method, method_used", FALLBACK_CASES)
def test_auto_fallback_returns_the_iteration_result(request, monkeypatch, error, case, method, method_used):
    from inversepoint.solver import AUTO_NEWTON_MAX_STEPS

    m = request.getfixturevalue(case)
    expected = solve(m, SolverConfig(method=method))
    budgets = _first_newton_fails(monkeypatch, error)
    res = solve(m)
    assert budgets[0] == AUTO_NEWTON_MAX_STEPS
    assert (res.method_used, res.iterations) == (expected.method_used, expected.iterations)
    assert res.method_used == method_used
    assert res.x.values.tobytes() == expected.x.values.tobytes()
    assert res.residual == expected.residual
    check_converged_invariants(m, res)


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
# log-space Newton, solves each input in the given number of steps. With that
# pass failing, the classification dispatch runs; its iterations are pinned
# only where no Newton step runs (the zero and weak diagonals reach Newton
# through the fixed-point and the bracket hand-offs).
PINNED_PATHS = [
    (random_contraction, 1, "contraction", 57, 3),
    (random_contraction, 2, "contraction", 77, 3),
    (random_contraction, 3, "contraction", 72, 3),
    (random_positive_diagonal, 1, "bracket", 52, 3),
    (random_positive_diagonal, 2, "bracket", 80, 3),
    (random_positive_diagonal, 3, "bracket", 94, 3),
    (_one_zero_diagonal, 1, "fixed_point", 81, 3),
    (_one_zero_diagonal, 2, "fixed_point", 104, 3),
    (_one_zero_diagonal, 3, "fixed_point", 135, 4),
    (_zero_diagonal, 1, "newton", None, 4),
    (_zero_diagonal, 2, "newton", None, 3),
    (_zero_diagonal, 3, "newton", None, 4),
    (_weak_diagonal, 1, "newton", None, 4),
    (_weak_diagonal, 2, "newton", None, 3),
    (_weak_diagonal, 3, "newton", None, 4),
]


@pytest.mark.parametrize(
    "recipe, seed, method, iterations, steps",
    PINNED_PATHS,
    ids=[f"{r.__name__}-{s}-{m}-{i}" for r, s, m, i, _ in PINNED_PATHS],
)
def test_auto_paths_are_pinned(monkeypatch, recipe, seed, method, iterations, steps):
    rng = np.random.default_rng(seed)
    m = recipe(rng, int(rng.integers(2, 9)))
    res = solve(m)
    check_converged_invariants(m, res)
    assert (res.method_used, res.iterations) == ("newton", steps)
    _first_newton_fails(monkeypatch, ConvergenceError)
    res = solve(m)
    check_converged_invariants(m, res)
    assert res.method_used == method
    if iterations is not None:
        assert res.iterations == iterations

