"""Solvers for x_i * (Mx)_i = 1: nested-box bracketing, contraction
iteration, damped Newton, and an auto mode that picks by classification.

Every public solver returns a SolveResult whose converged flag means
residual <= config.tol at the returned point; running out of budget raises
ConvergenceError carrying the best iterate as a non-converged result.

The contraction, bracket and fixed-point solvers all iterate the update map
F through one loop, _iterate; the bracket and the fixed-point path hand a
stalled iteration to Newton through _finish_with_newton. Each solve validates
and classifies the matrix once and passes the Classification down.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .classify import Classification, classify
from .core import PositiveVector, as_matrix, as_positive_vector, validate_solvable
from .errors import (
    ContractionPreconditionError,
    ConvergenceError,
    SingularJacobianError,
    ValidationError,
    ZeroRowError,
)

METHODS = ("auto", "bracket", "contraction", "newton", "fixed_point")

# A round whose gap shrinks by less than this factor counts toward a stall;
# ten in a row make the iteration give up.
STALL_RATIO = 0.999
STALL_ROUNDS = 10

# Fixed-point iterates beyond this magnitude count as divergence (solutions
# of sane systems are orders of magnitude smaller; letting the iteration run
# into overflow would make the failure mode backend-dependent).
DIVERGENCE_LIMIT = 1e100

# Newton halves a step at most this many times looking for a positive iterate
# with a smaller defect.
NEWTON_MAX_HALVINGS = 40


@dataclass
class SolverConfig:
    tol: float = 1e-12
    max_iter: int = 10000
    method: str = "auto"
    seed: int | None = None

    def __post_init__(self):
        if self.tol <= 0:
            raise ValidationError("tol must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")


@dataclass(frozen=True)
class BracketState:
    """One nested box: corners bounding the fixed point from below and above."""

    lower: np.ndarray
    upper: np.ndarray


@dataclass
class SolveResult:
    x: PositiveVector
    residual: float
    iterations: int
    method_used: str
    classification: Classification
    converged: bool
    trace: np.ndarray | None = None


def _result(mtx, x, iterations, method, trace, converged, classification=None):
    res = float(_kernels.residual_inf(mtx.entries, np.asarray(x, dtype=np.float64)))
    return SolveResult(
        x=PositiveVector(x),
        residual=res,
        iterations=iterations,
        method_used=method,
        classification=classification if classification is not None else classify(mtx),
        converged=converged,
        trace=np.asarray(trace, dtype=np.float64) if trace is not None else None,
    )


def _budget_error(mtx, x, iterations, method, trace, classification=None):
    best = _result(mtx, x, iterations, method, trace, False, classification)
    return ConvergenceError(
        f"{method}: residual {best.residual:.3e} after {iterations} iterations "
        f"(budget exhausted)",
        result=best,
    )


def solve(M, config: SolverConfig | None = None) -> SolveResult:
    """Dispatch on config.method. Newton starts from the all-ones vector."""
    mtx = as_matrix(M)
    config = config or SolverConfig()
    if config.method == "auto":
        return solve_auto(mtx, config)
    if config.method == "bracket":
        return solve_bracket(mtx, config)
    if config.method == "contraction":
        return solve_contraction(mtx, config)
    validate_solvable(mtx)
    if config.method == "newton":
        return solve_newton(mtx, np.ones(mtx.n), config)
    return _fixed_point(mtx, classify(mtx), config, newton_fallback=False)


def solve_auto(M, config: SolverConfig | None = None) -> SolveResult:
    """Pick the strongest applicable strategy: contraction iteration when
    2*m_ii > m_ij everywhere, else bracketing when the diagonal is positive,
    else plain fixed-point iteration from all-ones with a Newton fallback."""
    mtx = as_matrix(M)
    config = config or SolverConfig()
    validate_solvable(mtx)
    cls = classify(mtx)
    if cls.contraction_condition:
        return _contraction(mtx, cls, config)
    if cls.positive_diagonal:
        return _bracket(mtx, cls, config)
    return _fixed_point(mtx, cls, config, newton_fallback=True)


def solve_contraction(M, config: SolverConfig | None = None) -> SolveResult:
    """Iterate x <- F(x) from x0 = F(0); sound when F contracts.

    The Banach a-posteriori bound would allow stopping once the successive
    gap falls below tol*(1-C)/C, but that controls distance to the fixed
    point, not the residual; the residual is the authoritative stop so that
    converged always means residual <= tol.
    """
    mtx = as_matrix(M)
    config = config or SolverConfig()
    validate_solvable(mtx)
    cls = classify(mtx)
    if not cls.contraction_condition:
        raise ContractionPreconditionError(
            "2*m_ii > m_ij fails for some pair; the iteration has no contraction certificate"
        )
    return _contraction(mtx, cls, config)


def solve_bracket(M, config: SolverConfig | None = None, *, bracket_log=None) -> SolveResult:
    """Nested-box iteration x <- F(x) from the origin.

    Because F is decreasing, even iterates climb toward the fixed point and
    odd iterates descend toward it, so Box(even, odd) is a shrinking bracket.
    Stops on the midpoint residual; if the gap stalls (shrinks by less than
    STALL_RATIO for STALL_ROUNDS consecutive corners) or bottoms out above
    tol, a damped-Newton pass from the midpoint finishes the job.

    bracket_log, when a list, receives a BracketState per corner update.
    """
    mtx = as_matrix(M)
    config = config or SolverConfig()
    validate_solvable(mtx)
    diag = np.diagonal(mtx.entries)
    if (diag <= 0).any():
        i = int(np.nonzero(diag <= 0)[0][0])
        raise ZeroRowError(
            i,
            f"bracketing starts at the zero vector, where row {i} (zero diagonal) "
            f"has no positive root; use auto, fixed_point, or newton instead",
        )
    return _bracket(mtx, classify(mtx), config, bracket_log)


def _contraction(mtx, cls, config) -> SolveResult:
    x = np.empty(mtx.n)
    _kernels.f_apply(mtx.entries, np.zeros(mtx.n), x)  # cannot fail: diagonal is positive
    x, iterations, trace, reason, _ = _iterate(mtx, config, x)
    if reason != "converged":
        raise _budget_error(mtx, x, iterations, "contraction", trace, cls)
    return _result(mtx, x, iterations, "contraction", trace, True, cls)


def _bracket(mtx, cls, config, bracket_log=None) -> SolveResult:
    lower = np.zeros(mtx.n)
    upper = np.empty(mtx.n)
    _kernels.f_apply(mtx.entries, lower, upper)
    mid, iterations, trace, reason, gap = _iterate(
        mtx, config, upper, lower=lower, watch=True, bracket_log=bracket_log
    )
    if reason == "stalled":
        # A 2-cycle, a contraction rate near 1, or a box tighter than the
        # residual scale allows: Newton finishes from the midpoint with the
        # remaining budget.
        return _finish_with_newton(
            mtx, cls, config, mid, iterations, trace, "bracket",
            budget=max(1, config.max_iter - iterations),
            why=f"bracket stalled at gap {gap:.3e}",
        )
    if reason == "budget":
        raise _budget_error(mtx, mid, iterations, "bracket", trace, cls)
    return _result(mtx, mid, iterations, "bracket", trace, True, cls)


def _fixed_point(mtx, cls, config, *, newton_fallback: bool) -> SolveResult:
    """Plain iteration x <- F(x) from all-ones. Covers matrices with zero
    diagonal entries, where neither bracketing nor the contraction certificate
    applies; convergence is not guaranteed, so stalls, divergence and an
    exhausted budget either escalate to Newton (auto mode) or raise."""
    best, iterations, trace, reason, _ = _iterate(mtx, config, np.ones(mtx.n), watch=True)
    if reason == "converged":
        return _result(mtx, best, iterations, "fixed_point", trace, True, cls)
    if newton_fallback:
        return _finish_with_newton(
            mtx, cls, config, best, iterations, trace, "fixed_point",
            budget=config.max_iter,
            why="fixed-point iteration made no progress",
        )
    raise _budget_error(mtx, best, iterations, "fixed_point", trace, cls)


def _iterate(mtx, config, x, *, lower=None, watch=False, bracket_log=None):
    """Iterate x <- F(x) until the residual is at most config.tol.

    With lower, (lower, x) is the first nested box: each new iterate replaces
    the corner on its own side (F is decreasing, so the iterates alternate
    around the fixed point) and the residual is read at the box midpoint.
    Otherwise the residual is read at the latest iterate. bracket_log, when a
    list, receives a BracketState per box.

    With watch, the loop gives up when the gap between successive iterates
    shrinks by less than STALL_RATIO for STALL_ROUNDS rounds in a row, or, in
    a box, when the box is no wider than config.tol. Outside a box it also
    gives up on divergence, and reports its best iterate. Without watch (the
    contraction path, which has a certificate) it computes no gap at all.

    Returns (point, iterations, trace, reason, gap): reason is "converged",
    "stalled", "diverged" or "budget"; point is the last box midpoint, the
    best iterate (watch) or the last iterate; gap is the last gap computed.
    """
    m = mtx.entries
    n = mtx.n
    box = lower is not None
    if box:
        upper = x
        if bracket_log is not None:
            bracket_log.append(BracketState(lower.copy(), upper.copy()))
        r = np.inf
        trace = []
    else:
        r = float(_kernels.residual_inf(m, x))
        trace = [r]
    point, best_res = x, r
    iterations = 0
    gap = prev_gap = np.inf
    stall = 0
    while r > config.tol:
        if stall >= STALL_ROUNDS or (box and gap <= config.tol):
            return point, iterations, trace, "stalled", gap
        if iterations >= config.max_iter:
            return point, iterations, trace, "budget", gap
        nxt = np.empty(n)
        bad = _kernels.f_apply(m, x, nxt)
        if bad >= 0:
            raise ZeroRowError(int(bad))
        if watch and not box and (not np.isfinite(nxt).all() or float(np.max(nxt)) > DIVERGENCE_LIMIT):
            return point, iterations, trace, "diverged", gap
        prev, x = x, nxt
        iterations += 1
        if box:
            if iterations % 2:
                lower = x
            else:
                upper = x
            if bracket_log is not None:
                bracket_log.append(BracketState(lower.copy(), upper.copy()))
            point = 0.5 * (lower + upper)
            r = float(_kernels.residual_inf(m, point))
        else:
            r = float(_kernels.residual_inf(m, x))
            if not watch or r < best_res:
                point, best_res = x, r
        trace.append(r)
        if watch and r > config.tol:
            gap = float(np.max(upper - lower)) if box else float(np.max(np.abs(x - prev)))
            stall = stall + 1 if prev_gap > 0.0 and gap / prev_gap > STALL_RATIO else 0
            prev_gap = gap
    return point, iterations, trace, "converged", gap


def _finish_with_newton(mtx, cls, config, x, iterations, trace, method, *, budget, why):
    """Hand the point where an iteration gave up to Newton with the given
    budget. The result counts the iterations of both phases and joins their
    traces; if Newton fails too, the ConvergenceError carries that point."""
    try:
        fin = solve_newton(mtx, x, replace(config, max_iter=budget), _cls=cls)
    except (ConvergenceError, SingularJacobianError) as err:
        best = _result(mtx, x, iterations, method, trace, False, cls)
        raise ConvergenceError(f"{why} and the Newton fallback failed: {err}", result=best) from err
    return replace(fin, iterations=iterations + fin.iterations, trace=np.concatenate([trace, fin.trace]))


def solve_newton(M, x0, config: SolverConfig | None = None, *, _cls=None) -> SolveResult:
    """Damped Newton on G_i(x) = x_i*(Mx)_i - 1 from a positive start.

    The Jacobian is J_ij = x_i*m_ij + delta_ij*(Mx)_i and each step is solved
    by LAPACK; steps are halved until the defect norm decreases and the
    iterate stays strictly positive. A singular Jacobian (an exactly zero
    pivot, or a step that is not finite) raises SingularJacobianError.
    """
    mtx = as_matrix(M)
    config = config or SolverConfig()
    x = as_positive_vector(x0).values.copy()
    if x.shape[0] != mtx.n:
        raise ValidationError(f"start point has length {x.shape[0]}, expected {mtx.n}")
    m = mtx.entries
    n = mtx.n
    g = np.empty(n)
    jac = np.empty((n, n))
    gt = np.empty(n)
    _kernels.quad_defect(m, x, g)
    gn = float(np.max(np.abs(g)))
    trace = [gn]
    iterations = 0
    while gn > config.tol:
        if iterations >= config.max_iter:
            raise _budget_error(mtx, x, iterations, "newton", trace, _cls)
        _kernels.newton_system(m, x, jac, g)
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.isfinite(step).all():
            raise SingularJacobianError(f"newton: the Jacobian is singular at iteration {iterations}")
        lam = 1.0
        accepted = False
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            xt = x + lam * step
            if (xt > 0).all():
                _kernels.quad_defect(m, xt, gt)
                gtn = float(np.max(np.abs(gt)))
                if gtn < gn:
                    x, gn = xt, gtn
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            best = _result(mtx, x, iterations, "newton", trace, False, _cls)
            raise ConvergenceError(
                f"newton: line search could not reduce the defect below {gn:.3e} "
                f"within {NEWTON_MAX_HALVINGS} halvings",
                result=best,
            )
        iterations += 1
        trace.append(gn)
    return _result(mtx, x, iterations, "newton", trace, True, _cls)


def multistart_uniqueness(M, config: SolverConfig | None = None, starts: int = 20):
    """Newton from seeded random starts (components log-uniform in
    [1e-2, 1e2]); returns (first result, max pairwise inf-distance among all
    solutions). Small distances are empirical evidence of uniqueness."""
    mtx = as_matrix(M)
    config = config or SolverConfig()
    validate_solvable(mtx)
    if starts < 1:
        raise ValidationError("starts must be at least 1")
    cls = classify(mtx)
    rng = np.random.default_rng(config.seed if config.seed is not None else 0)
    first = None
    solutions = []
    for _ in range(starts):
        x0 = 10.0 ** rng.uniform(-2.0, 2.0, mtx.n)
        res = solve_newton(mtx, x0, config, _cls=cls)
        if first is None:
            first = res
        solutions.append(res.x.values)
    dmax = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            d = float(np.max(np.abs(solutions[i] - solutions[j])))
            if d > dmax:
                dmax = d
    return first, dmax
