"""Structure-exploiting interior point QP framework for model predictive control.

Three convex QP types (dense, optimal-control, tree optimal-control) with
soft-constraint slacks and per-side constraint masks, a family of
predictor-corrector interior point solvers with selectable speed/robustness
modes, Riccati-based KKT factorizations, iterative refinement, full and
partial condensing, and a CLI for benchmark generation and closed-loop MPC
runs.
"""

from .condensing import (
    CondensingMap,
    PartialCondensingMap,
    condense,
    expand_solution,
    partial_condense,
    partial_expand,
)
from .errors import (
    ClosedLoopFailed,
    CondenseError,
    DimensionMismatch,
    FactorizationFailed,
    IndexOutOfRange,
    InvalidBlockSize,
    InvalidConfig,
    InvalidDim,
    MpcQpError,
    NonPositiveIterate,
    NotPositiveDefinite,
    ParseError,
    RankDeficient,
    SingularFactor,
    SingularSlackBlock,
    UnknownField,
    VersionMismatch,
)
from .ipm_core import IpmArg, SolverStats, Status, mode_preset
from .linalg import flop_counter
from .mass_spring import (
    MassSpringConfig,
    default_x0,
    gen_mass_spring,
    mass_spring_dynamics,
    run_closed_loop,
)
from .qp_data import (
    DenseQp,
    OcpQp,
    OcpQpDim,
    TreeOcpQp,
    TreeOcpQpDim,
    Violation,
    validate,
)
from .qp_io import qp_read, qp_write
from .solver import SolveReport, solve_dense_qp, solve_ocp_qp, solve_tree_ocp_qp
from .view import (
    QpResiduals,
    QpSolution,
    compute_residuals,
    full_kkt_system,
    objective,
)

__version__ = "0.1.0"

__all__ = [
    "CondensingMap",
    "PartialCondensingMap",
    "condense",
    "expand_solution",
    "partial_condense",
    "partial_expand",
    "ClosedLoopFailed",
    "CondenseError",
    "DimensionMismatch",
    "FactorizationFailed",
    "IndexOutOfRange",
    "InvalidBlockSize",
    "InvalidConfig",
    "InvalidDim",
    "MpcQpError",
    "NonPositiveIterate",
    "NotPositiveDefinite",
    "ParseError",
    "RankDeficient",
    "SingularFactor",
    "SingularSlackBlock",
    "UnknownField",
    "VersionMismatch",
    "IpmArg",
    "SolverStats",
    "Status",
    "mode_preset",
    "flop_counter",
    "MassSpringConfig",
    "default_x0",
    "gen_mass_spring",
    "mass_spring_dynamics",
    "run_closed_loop",
    "DenseQp",
    "OcpQp",
    "OcpQpDim",
    "TreeOcpQp",
    "TreeOcpQpDim",
    "Violation",
    "validate",
    "qp_read",
    "qp_write",
    "SolveReport",
    "solve_dense_qp",
    "solve_ocp_qp",
    "solve_tree_ocp_qp",
    "QpResiduals",
    "QpSolution",
    "compute_residuals",
    "full_kkt_system",
    "objective",
    "__version__",
]
