"""Solvers for x_i * (Mx)_i = 1: log-space Newton, nested-box bracketing,
contraction iteration, and an auto mode.

Auto is solve_newton, the one Newton of the package: damped Newton in
y = log x on M itself from a swept start, and where that fails, on M's exact
power-of-two balance P M P, whose products stay in range. Every operation
scales exactly under M -> 4^j M, x -> x / 2^j, so x(4^j M) = x(M) / 2^j holds
bitwise until an intermediate leaves the normal range.

Every public solver returns a SolveResult whose converged flag means
residual <= config.tol at the returned point; a failure raises
ConvergenceError (SingularJacobianError is one) carrying the best iterate as a
non-converged result, or none where it has an entry outside the double
range. Once its arguments and the method's precondition are checked, no
solver raises a ValidationError.

The contraction and bracket solvers iterate the update map F through one
loop, _bracket: the paper's nested boxes, whose newest corner is the
contraction iterate. The bracket reads the residual at the box midpoint,
contraction at the newest corner, and both hand a stalled box to Newton.
Every public solver opens with _prepare, which classifies the matrix once
and validates it from that Classification; the solver passes it down. It
reads a C-contiguous float64 ndarray through a read-only view, and classify
checks finiteness from its own reductions, so a solve makes no n x n copy or
temporary. Every loop reads the residual of the point it returns, and the
result takes it from there: SolveResult.residual is trace[-1].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .classify import Classification, classify
from .core import PositiveVector, _count, _entries, _positive, _tol, validate_solvable
from .errors import (
    ContractionPreconditionError,
    ConvergenceError,
    SingularJacobianError,
    ValidationError,
    ZeroRowError,
)

METHODS = ("auto", "bracket", "contraction", "newton")

# A round whose gap shrinks by less than this factor counts toward a stall;
# ten in a row make the iteration give up.
STALL_RATIO = 0.999
STALL_ROUNDS = 10

# Newton halves a step at most this many times looking for a smaller log
# defect.
NEWTON_MAX_HALVINGS = 40

# Before its halvings, a Newton step is scaled to move no entry of log x by
# more than this. Near-bipartite inputs, where I + S is nearly singular, get
# full steps that overflow; the cap saves most of their halvings (n = 200:
# 20.7 -> 12.2 defect evaluations per solve, Newton steps 6.46 -> 6.50). A cap
# of 2 costs steps (6.94).
NEWTON_MAX_STEP = 4.0

# The default start is swept by another Sinkhorn pair while the last one cut
# the scale-free defect max q / min q - 1 by at least this factor, which dense
# inputs reach (a pair multiplies the error by lambda_2(S)^2, small there) and
# near-bipartite ones do not (lambda_2 is near -1). On the perfbench pools a
# rate of 3 sent most small inputs through 8-24 pairs (small_mixed ~15%
# slower per solve), where 10 and 30 tied.
SWEEP_MIN_RATE = 10.0

# From n = KRYLOV_MIN_N (the measured crossover) a Newton step is matrix-free GMRES,
# O(n^2) per iteration, not an O(n^3) LU, which stays the fallback after KRYLOV_MAX_ITER.
KRYLOV_MIN_N = 128
KRYLOV_MAX_ITER = 40


@dataclass
class SolverConfig:
    tol: float = 1e-12
    max_iter: int = 10000
    method: str = "auto"

    def __post_init__(self):
        self.tol = _tol(self.tol)
        self.max_iter = _count(self.max_iter, "max_iter")
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


def _prepare(M, config):
    """(M's entries as core._entries reads them, config or the default, M's
    Classification): the prologue of every solver. M is classified once and
    validated from that classification, which the solver passes down."""
    m = _entries(M)
    cls = classify(m)  # checks finiteness: nothing may read M's values before it
    validate_solvable(m, cls)
    return m, config or SolverConfig(), cls


def _result(x, iterations, method, trace, converged, cls):
    """The SolveResult at x, whose residual the loop put last in trace. An x
    with an entry outside the double range raises ConvergenceError instead."""
    try:
        x = PositiveVector(x)
    except ValidationError:
        raise ConvergenceError(
            f"{method}: x has an entry outside the double range after {iterations} iterations "
            f"(min {np.min(x):.3e}, max {np.max(x):.3e})"
        ) from None
    return SolveResult(
        x=x,
        residual=float(trace[-1]),
        iterations=iterations,
        method_used=method,
        classification=cls,
        converged=converged,
        trace=np.asarray(trace, dtype=np.float64),
    )


def _failure(text, x, iterations, method, trace, cls, error=ConvergenceError):
    """error (a ConvergenceError class) with text after the method's name,
    carrying the non-converged result at x, which _result reads."""
    return error(f"{method}: {text}", result=_result(x, iterations, method, trace, False, cls))


def solve(M, config: SolverConfig | None = None) -> SolveResult:
    """Dispatch on config.method. Auto and newton are one solver."""
    config = config or SolverConfig()
    if config.method == "bracket":
        return solve_bracket(M, config)
    if config.method == "contraction":
        return solve_contraction(M, config)
    return solve_newton(M, None, config)


def solve_auto(M, config: SolverConfig | None = None) -> SolveResult:
    """solve_newton from its default start, as method="newton" runs it."""
    return solve_newton(M, None, config)


def solve_contraction(M, config: SolverConfig | None = None) -> SolveResult:
    """Iterate x <- F(x) from x0 = F(0); sound when F contracts.

    These iterates are the corners of the bracket's nested boxes, so this is
    the bracket with its residual read at the newest corner, from F(0) on,
    instead of at the box midpoint. It shares the bracket's stall rule, which
    fires only where tol is out of reach, and its hand-off to Newton.

    The Banach a-posteriori bound would allow stopping once the successive
    gap falls below tol*(1-C)/C, but that controls distance to the fixed
    point, not the residual; the residual is the authoritative stop so that
    converged always means residual <= tol.
    """
    m, config, cls = _prepare(M, config)
    if not cls.contraction_condition:
        raise ContractionPreconditionError(
            "2*m_ii > m_ij fails for some pair; the iteration has no contraction certificate"
        )
    return _bracket(m, cls, config, method="contraction")


def solve_bracket(M, config: SolverConfig | None = None, *, bracket_log=None) -> SolveResult:
    """Nested-box iteration x <- F(x) from the origin.

    Because F is decreasing, even iterates climb toward the fixed point and
    odd iterates descend toward it, so Box(even, odd) is a shrinking bracket.
    Stops on the midpoint residual; if the gap stalls (shrinks by less than
    STALL_RATIO for STALL_ROUNDS consecutive corners), a damped-Newton pass
    from the midpoint finishes the job. Where the Classification reports no
    positive diagonal, ZeroRowError names the first zero on it: F is
    undefined at the origin there.

    bracket_log, when a list, receives a BracketState per corner update.
    """
    m, config, cls = _prepare(M, config)
    if not cls.positive_diagonal:
        i = int(m.diagonal().argmin())  # the diagonal is nonnegative: its first zero
        raise ZeroRowError(i, f"bracketing starts at the zero vector, where row {i} (zero diagonal) "
                           "has no positive root; use auto or newton instead")
    return _bracket(m, cls, config, bracket_log)


def _bracket(m, cls, config, bracket_log=None, method="bracket") -> SolveResult:
    """The one loop over F: the nested boxes from (0, F(0)), each new iterate
    replacing the corner on its own side (F is decreasing, so the iterates
    alternate around the fixed point). The bracket reads its residual at the
    box midpoint; contraction reads it at F(0), then at the newest corner.

    The loop stops once the residual is at most config.tol (a NaN residual
    never counts), when the budget is spent, or when the box width fails to
    shrink below STALL_RATIO times the last one for STALL_ROUNDS rounds in a
    row (a box collapsed to a point included). It never compares a width with
    tol, so it obeys the scale law. Newton finishes a stalled box from the
    point last read. bracket_log, when a list, receives a BracketState per box,
    whose corners are fresh arrays that nothing writes. The caller checks
    cls.positive_diagonal, so F is defined at every point the loop reads.
    """
    lower = np.zeros(m.shape[0])
    upper = _kernels.f_apply(m, lower)
    if bracket_log is not None:
        bracket_log.append(BracketState(lower, upper))
    corner = method == "contraction"
    x = point = upper
    r = float(_kernels.residual_inf(m, x)) if corner else np.inf
    trace = [r] if corner else []
    iterations = 0
    gap = np.inf
    stall = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual never converges
        while not r <= config.tol and stall < STALL_ROUNDS:
            if iterations >= config.max_iter:
                raise _failure(f"residual {trace[-1]:.3e} after {iterations} iterations (budget exhausted)",
                               point, iterations, method, trace, cls)
            x = _kernels.f_apply(m, x)
            iterations += 1
            if iterations % 2:
                lower = x
            else:
                upper = x
            if bracket_log is not None:
                bracket_log.append(BracketState(lower, upper))
            point = x if corner else 0.5 * (lower + upper)
            width = float(_kernels.vmax(upper - lower))
            stall = stall + 1 if width >= STALL_RATIO * gap else 0
            gap = width
            r = float(_kernels.residual_inf(m, point))
            trace.append(r)
    if r <= config.tol:
        return _result(point, iterations, method, trace, True, cls)
    # Stalled: a 2-cycle, a contraction rate near 1, or a box tighter than the
    # residual scale allows. Newton finishes from the point last read with the
    # remaining budget; the result counts the iterations of both phases.
    best = _result(point, iterations, method, trace, False, cls)
    rest = replace(config, max_iter=max(1, config.max_iter - iterations))
    try:
        fin = _newton(m, best.x.values, rest, cls)
    except ConvergenceError as err:
        raise ConvergenceError(
            f"{method} stalled at gap {gap:.3e} and the Newton fallback failed: {err}", result=best
        ) from err
    return replace(fin, iterations=iterations + fin.iterations, trace=np.concatenate([trace, fin.trace]))


def solve_newton(M, x0=None, config: SolverConfig | None = None) -> SolveResult:
    """Damped Newton in log space, y = log x, from a positive start.

    It solves G(y) = log(x_i*(Mx)_i) = 0 on M itself, with x in M's own scale;
    every operation of its loop, products with M included, obeys the scale
    law. An explicit x0 is used as given. The default start, _swept_start, is
    r = 1/sqrt(rowsum(M)) refined by Sinkhorn pairs z <- 1/(M(1/(Mz))) and one
    closing half step y <- y - G(y)/2. Near the solution a pair multiplies the
    error by S^2, S = diag(x) M diag(x) stochastic: by lambda^2 on an
    eigenvalue lambda of S, small on dense inputs, near 1 where lambda_2 is
    near -1, where Newton takes over after a pair or two. Pairs leave the
    overall scale, and modes with lambda near 1, alone; the half step removes
    them.

    With g = log1p(x*(Mx) - 1) the step s solves
    (I + diag(1/Mx) M diag(x)) s = -g: from n = KRYLOV_MIN_N on by matrix-free
    GMRES to a relative residual of min(0.5, max|g|), or looser where tol
    needs no more; below that, or when GMRES gives up, by _kernels.gauss_solve
    on the quadratic Jacobian. Both reuse the Mx of the accepted trial. The
    trial x*exp(lam*s) is positive by construction; lam starts where no
    entry of lam*s exceeds NEWTON_MAX_STEP, at most 1, and is halved until
    max|g| decreases. Stops once the residual max|x*(Mx) - 1| is at most tol.

    iterations counts Newton steps. trace holds the start's entries (see
    _swept_start), then the residual after each Newton step. So
    len(trace) - 1 - iterations counts the kept pairs (1 for a half step
    alone), and the residual is trace[-1]. A step that is not finite (LAPACK
    returns NaN at an exactly zero pivot) raises SingularJacobianError, a
    spent budget or a line search that fails ConvergenceError; both carry the
    last iterate as a non-converged result.

    From the default start, a ConvergenceError reruns Newton on _balanced's
    M' = P M P with M's Classification. As x_i (Mx)_i = x'_i (M'x')_i for
    x = P x', that pass's trace is M's, and x = P x' is returned if it is
    normal; else a range ConvergenceError with no result, or, where the M'
    pass fails too, the first pass's error.
    """
    m, config, cls = _prepare(M, config)
    if x0 is not None:
        return _newton(m, _positive(x0, m.shape[0]), config, cls)
    try:
        return _newton(m, None, config, cls)
    except ConvergenceError as first:
        mb, k = _balanced(m)
        try:
            res = _newton(mb, None, config, cls)
        except ConvergenceError:
            raise first from None
    f, e = np.frexp(res.x.values)
    e = e + k  # x = f 2^e with f in [1/2, 1): normal where -1021 <= e <= 1024
    if -1021 <= _kernels.vmin(e) and _kernels.vmax(e) <= 1024:
        return replace(res, x=PositiveVector(np.ldexp(f, e)))
    raise ConvergenceError(f"newton: x spans 2^{_kernels.vmin(e) - 1}..2^{_kernels.vmax(e)}, outside the double range "
                           "of normal numbers")


def _newton(m, x, config, cls):
    """solve_newton's loop on m from x, or from _swept_start where x is None."""
    iterations = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if x is None:
            x, d, g, gn, mx, trace = _swept_start(m, config.tol)
        else:
            d, g, gn, mx = _log_defect(m, x)
            trace = [float(_kernels.vmax(np.abs(d)))]
        while trace[-1] > config.tol:
            if not gn < np.inf:  # only at the start: an accepted step lowers gn
                raise _failure("the start point is too far off: the log defect log1p(x*(Mx) - 1) is not "
                               "finite there", x, iterations, "newton", trace, cls)
            if iterations >= config.max_iter:
                raise _failure(f"residual {trace[-1]:.3e} after {iterations} iterations (budget exhausted)",
                               x, iterations, "newton", trace, cls)
            s = None
            if m.shape[0] >= KRYLOV_MIN_N:
                # Relaxed where ||r||_2 <= tol/2 suffices; then max|g|^2 < tol/2.
                eta = min(0.5, max(gn, 0.5 * config.tol / float(np.sqrt(g @ g))))
                s = _kernels.krylov_step(m, x, mx, g, eta, KRYLOV_MAX_ITER)
            if s is None:
                s = _kernels.gauss_solve(_kernels.newton_system(m, x, mx), (-1.0 - d) * g) / x
            # smax is NaN or inf unless the step is finite.
            smax = float(_kernels.vmax(np.abs(s)))
            if not smax < np.inf:
                raise _failure(f"the Jacobian is singular at iteration {iterations}", x, iterations, "newton",
                               trace, cls, SingularJacobianError)
            lam = 1.0 if smax <= NEWTON_MAX_STEP else NEWTON_MAX_STEP / smax
            for _ in range(NEWTON_MAX_HALVINGS + 1):
                xt = x * np.exp(s if lam == 1.0 else lam * s)
                dt, gt, gtn, mxt = _log_defect(m, xt)
                if gtn < gn:
                    break
                lam *= 0.5
            if not gtn < gn:
                raise _failure(f"line search could not reduce the log defect below {gn:.3e} within "
                               f"{NEWTON_MAX_HALVINGS} halvings", x, iterations, "newton", trace, cls)
            iterations += 1
            x, d, g, gn, mx = xt, dt, gt, gtn, mxt
            trace.append(float(_kernels.vmax(np.abs(d))))
    return _result(x, iterations, "newton", trace, True, cls)


def _swept_start(m, tol):
    """solve_newton's default start: (x, d, g, max|g|, Mx, trace) at it.

    It is r = 1/sqrt(rowsum(M)), the row sums taken as one product with a
    vector of ones: it costs about a third of m.sum(axis=1), and it scales
    exactly under M -> 4^j M as every other product does. A row sum that
    overflows gives r an entry 0; where no pair lifts it, Newton fails at the
    start and solve_newton runs on M's balance. Where r's residual is above
    tol, Sinkhorn pairs z <- 1/(M(1/(Mz))) refine it, two products each, the
    first reusing the product already held. A pair is judged by the scale-free defect
    e = max q / min q - 1 of q = z*(Mz): it is kept only if it lowers e, and
    another follows only while e > tol and the last one cut e by at least
    SWEEP_MIN_RATE. One half step x = z/sqrt(q), which is
    sqrt(z/(Mz)) without forming that quotient of order z^2, closes the sweep
    from the last kept pair, or from r where none was kept. The closed point
    replaces r only if it lowers max|g|.

    trace holds r's residual, then one e per kept pair, the last one replaced
    by the residual at the closed point (a lone entry where no pair was
    kept); where r is returned, only r's residual.
    """
    # Positive row sums: M is validated. np.ones costs more than the product
    # up to n = 64.
    ones = np.empty(m.shape[0])
    ones.fill(1.0)
    r = np.reciprocal(np.sqrt(m.dot(ones)))
    mr = m.dot(r)
    q = r * mr
    hi, lo = _kernels.vmax(q), _kernels.vmin(q)
    trace = [float(max(hi - 1.0, 1.0 - lo))]
    if trace[0] > tol:
        z, mz, qz, e = r, mr, q, hi / lo - 1.0
        pairs = []
        while True:
            zt = np.reciprocal(m.dot(np.reciprocal(mz)))
            mzt = m.dot(zt)
            qt = zt * mzt
            et = float(_kernels.vmax(qt) / _kernels.vmin(qt)) - 1.0
            if not et < e:
                break
            pairs.append(et)
            fast = SWEEP_MIN_RATE * et <= e
            z, mz, qz, e = zt, mzt, qt, et
            if not (fast and e > tol):
                break
        x = z / np.sqrt(qz)
        d, g, gn, mx = _log_defect(m, x)
        if gn < max(np.log1p(hi - 1.0), -np.log1p(lo - 1.0)):  # r's max|g|, bitwise
            pairs[-1:] = [float(_kernels.vmax(np.abs(d)))]
            return x, d, g, gn, mx, trace + pairs
    d = q - 1.0  # bitwise quad_defect at r
    g = np.log1p(d)
    return r, d, g, float(_kernels.vmax(np.abs(g))), mr, trace


def _balanced(m):
    """(M' = P M P, k), P = diag(2^k): Ruiz's inf-norm equilibration in radix
    powers, as Parlett and Reinsch balance. With e the exponents of M's nonzero
    entries, k -= r // 2, r = k + max_j(e_ij + k_j), from k = -(max e // 2) (so
    k(4^j M) = k(M) - j) until every |r_i| <= 1, for at most the exponent span
    + 64 rounds. M' is one ldexp of the summed exponents: two may overflow."""
    f, e = np.frexp(m)
    masked = np.where(f > 0, e, np.int64(-1 << 40))  # a zero is no row maximum
    top = int(masked.max())
    k = np.full(m.shape[0], -(top // 2), dtype=np.int64)
    for _ in range(top - int(e[f > 0].min()) + 64):
        r = k + (masked + k).max(axis=1)
        if _kernels.vmax(np.abs(r)) <= 1:
            break
        k -= r // 2
    return np.ldexp(f, e + k[:, None] + k), k


def _log_defect(m, x):
    """(d, g, max|g|, Mx) at x: the quadratic defect d = x*(Mx) - 1, the log
    defect g = log1p(d) and the product behind both. Callers ignore
    floating-point errors around it: a product that overflowed or vanished
    gives an infinite or NaN norm, which no line search accepts, instead of a
    warning."""
    d, mx = _kernels.quad_defect(m, x)
    g = np.log1p(d)
    return d, g, float(_kernels.vmax(np.abs(g))), mx


def multistart_uniqueness(M, config: SolverConfig | None = None, starts: int = 20, seed=0):
    """Newton from random starts, components log-uniform in [1e-2, 1e2] drawn by
    np.random.default_rng(seed); returns (first result, max pairwise inf-distance
    among all solutions, taken as the widest coordinate range, the same double,
    in O(starts * n) memory). Small distances are empirical evidence of uniqueness."""
    starts = _count(starts, "starts")
    m, config, cls = _prepare(M, config)
    rng = np.random.default_rng(seed)
    first = None
    solutions = []
    for _ in range(starts):
        x0 = 10.0 ** rng.uniform(-2.0, 2.0, m.shape[0])
        res = _newton(m, x0, config, cls)
        if first is None:
            first = res
        solutions.append(res.x.values)
    sol = np.array(solutions)
    return first, float(np.max(sol.max(axis=0) - sol.min(axis=0)))
