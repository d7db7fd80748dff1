"""Exception types shared across the package.

Every error but the base InversePointError is in exactly one of two families,
which set the CLI's exit code: ValidationError, the input is at fault (exit
1), and ConvergenceError, the input is valid but the numerics failed (exit 2).
"""

from __future__ import annotations


class InversePointError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(InversePointError):
    """Input data violates a construction invariant (NaN, sign, shape) or a
    precondition of the requested method.

    ``line`` and ``column`` are 1-based positions into the offending input
    when the error comes from a parser, else None.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class DimensionError(ValidationError):
    """Operands have incompatible or non-square shapes."""


class ParseError(ValidationError):
    """Input text is not well-formed CSV or JSON."""


class NonNegativityError(ValidationError):
    """A negative entry appeared where a nonnegative matrix is required."""


class ZeroRowError(ValidationError):
    """Row equation x_i * (Mx)_i = 1 is unsatisfiable.

    Raised when m_ii = 0 and the off-diagonal contribution b_i is zero at the
    evaluation point; in particular for an all-zero row, where it is zero at
    every point. ``row`` is the 0-based row index.
    """

    def __init__(self, row: int, message: str | None = None):
        if message is None:
            message = (
                f"row {row}: m[{row},{row}] = 0 and the off-diagonal terms vanish at "
                f"the evaluation point, so x[{row}]*(Mx)[{row}] = 1 has no solution"
            )
        super().__init__(message)
        self.row = row


class NotPrimitiveError(ValidationError):
    """The matrix is not primitive (no power of it is entrywise positive)."""


class ContractionPreconditionError(ValidationError):
    """2*m_ii > m_ij fails for some pair, so the contraction iteration is unsound."""


class ConvergenceError(InversePointError):
    """Iteration budget exhausted (or progress stopped) before reaching tol.

    ``result`` carries the best iterate found, as a SolveResult with
    converged=False, when the failing solver had one it can represent.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class SingularJacobianError(ConvergenceError):
    """The Newton step cannot be solved: LAPACK found an exactly zero pivot
    in the Jacobian, or the step it returned is not finite. ``result`` carries
    the Newton iterate where that happened."""


class OracleDivergenceError(ConvergenceError):
    """The brute-force oracle failed to reach its tolerance."""
