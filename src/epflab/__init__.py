"""epflab: exact penalty and augmented Lagrangian laboratory.

Penalty constructions for cone-constrained programs (linear, q-th order,
C1 smoothed for second-order-cone and semidefinite constraints, and the
Rockafellar-Wets augmented Lagrangian), a benchmark registry of small
problems with certified optima, and an empirical harness that checks the
localization conditions and estimates least exact penalty parameters.
"""

__version__ = "0.1.0"

from .cones import dist_lorentz, dist_psd_minus, proj_lorentz, proj_psd
from .errors import (
    AllStartsFailed,
    DimensionMismatch,
    EpflabError,
    NoConvergence,
    NonFiniteEvaluation,
    NonMonotonePredicate,
    NotPositiveDefinite,
    UnknownProblem,
)
from .auglag import hpr_closed_form
from .harness import (
    CStarResult,
    PenaltyHandle,
    SweepRecord,
    c_sweep,
    estimate_c_star,
    geometric_grid,
    local_exactness_probe,
    make_penalty,
    nondegeneracy_probe,
    penalty_type_probe,
    sublevel_bounded_probe,
)
from .numerics import chol_solve, eig_sym, sym
from .penalties import linear_eval, q_order, qpen_eval
from .problems import (
    ConstrainedProblem,
    KnownSolution,
    feasibility_gap,
    get_problem,
    kkt_residual,
    registry,
)
from .report import ExactnessReport, localize, parse_report, serialize_report, sweep_to_csv
from .smoothpen import (
    BarrierState,
    EstimatorConfig,
    MultiplierEstimate,
    barrier_state_sdp,
    barrier_state_soc,
    c1_penalty_sdp,
    c1_penalty_soc,
    estimate_multipliers_sdp,
    estimate_multipliers_soc,
)
from .solvers import MinimizeResult, SolverConfig, minimize, polish

__all__ = [
    "__version__",
    "AllStartsFailed",
    "BarrierState",
    "CStarResult",
    "ConstrainedProblem",
    "DimensionMismatch",
    "EpflabError",
    "EstimatorConfig",
    "ExactnessReport",
    "KnownSolution",
    "MinimizeResult",
    "MultiplierEstimate",
    "NoConvergence",
    "NonFiniteEvaluation",
    "NonMonotonePredicate",
    "NotPositiveDefinite",
    "PenaltyHandle",
    "SolverConfig",
    "SweepRecord",
    "UnknownProblem",
    "barrier_state_sdp",
    "barrier_state_soc",
    "c1_penalty_sdp",
    "c1_penalty_soc",
    "c_sweep",
    "chol_solve",
    "dist_lorentz",
    "dist_psd_minus",
    "eig_sym",
    "estimate_c_star",
    "estimate_multipliers_sdp",
    "estimate_multipliers_soc",
    "feasibility_gap",
    "geometric_grid",
    "get_problem",
    "hpr_closed_form",
    "kkt_residual",
    "linear_eval",
    "local_exactness_probe",
    "localize",
    "make_penalty",
    "minimize",
    "nondegeneracy_probe",
    "parse_report",
    "penalty_type_probe",
    "polish",
    "proj_lorentz",
    "proj_psd",
    "q_order",
    "qpen_eval",
    "registry",
    "serialize_report",
    "sublevel_bounded_probe",
    "sweep_to_csv",
    "sym",
]
