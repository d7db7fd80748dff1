"""Find the positive vector a nonnegative square matrix maps onto its
element-wise inverse: M x = (1/x_1, ..., 1/x_n), equivalently the diagonal
scaling D = diag(x) making D M D row-stochastic.

The hot kernels are vectorized numpy; BACKEND names them and is always
"numpy".
"""

from ._kernels import BACKEND
from .classify import (
    Classification,
    classify,
    contraction_condition,
    has_positive_diagonal,
    is_primitive,
    perron_vector,
)
from .core import (
    Matrix,
    PositiveVector,
    as_positive_vector,
    diag_sandwich,
    inverse_elementwise,
    matvec,
)
from .errors import (
    ContractionPreconditionError,
    ConvergenceError,
    DimensionError,
    InversePointError,
    NonNegativityError,
    NotPrimitiveError,
    OracleDivergenceError,
    ParseError,
    SingularJacobianError,
    ValidationError,
    ZeroRowError,
)
from .fixedpoint import F_map, RowContext, b_value, f_gradient, f_value, residual
from .io import emit_classification, emit_matrix, emit_result, parse_matrix
from .oracle import oracle_solve
from .solver import (
    BracketState,
    SolveResult,
    SolverConfig,
    multistart_uniqueness,
    solve,
    solve_auto,
    solve_bracket,
    solve_contraction,
    solve_newton,
)
from .stochastic import StochasticCertificate, certify

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BracketState",
    "Classification",
    "ContractionPreconditionError",
    "ConvergenceError",
    "DimensionError",
    "F_map",
    "InversePointError",
    "Matrix",
    "NonNegativityError",
    "NotPrimitiveError",
    "OracleDivergenceError",
    "ParseError",
    "PositiveVector",
    "RowContext",
    "SingularJacobianError",
    "SolveResult",
    "SolverConfig",
    "StochasticCertificate",
    "ValidationError",
    "ZeroRowError",
    "as_positive_vector",
    "b_value",
    "certify",
    "classify",
    "contraction_condition",
    "diag_sandwich",
    "emit_classification",
    "emit_matrix",
    "emit_result",
    "f_gradient",
    "f_value",
    "has_positive_diagonal",
    "inverse_elementwise",
    "is_primitive",
    "matvec",
    "multistart_uniqueness",
    "oracle_solve",
    "parse_matrix",
    "perron_vector",
    "residual",
    "solve",
    "solve_auto",
    "solve_bracket",
    "solve_contraction",
    "solve_newton",
]
