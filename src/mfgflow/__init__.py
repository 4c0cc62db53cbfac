"""Equilibrium flows for first-order ergodic mean-field games.

The package computes epsilon-Nash equilibria by running total-variation
minimizing-movement flows (best-response and eikonal variants) over
linear and nonlinear elliptic payoff models in one and two dimensions.
"""

from .diagnostics import (
    RefinementStudy,
    StressRow,
    functional_trace,
    nash_certificate,
    refinement_study,
    stress_test,
)
from .eikonal import extract_target, solve_eikonal
from .elliptic import (
    ModelSpec,
    NonlinearSolveOptions,
    SolverError,
    TrivialBranchWarning,
    pde_residual,
    solve_linear,
    solve_nonlinear,
    solve_payoff,
)
from .flow import (
    FlowConfig,
    FlowResult,
    IterationRecord,
    RedistributionShortfallError,
    nash_gap,
    redistribute,
    run_flow,
    select_farthest,
    select_lowest_income,
)
from .grid import Grid, integrate, make_grid
from .measures import (
    Density,
    ScalarField,
    normalize,
    random_density,
    support,
    tv_distance,
)
from .presets import PRESETS, build_model, evaluate_expression

__version__ = "0.1.0"

__all__ = [
    "Density",
    "FlowConfig",
    "FlowResult",
    "Grid",
    "IterationRecord",
    "ModelSpec",
    "NonlinearSolveOptions",
    "PRESETS",
    "RedistributionShortfallError",
    "RefinementStudy",
    "ScalarField",
    "SolverError",
    "StressRow",
    "TrivialBranchWarning",
    "build_model",
    "evaluate_expression",
    "extract_target",
    "functional_trace",
    "integrate",
    "make_grid",
    "nash_certificate",
    "nash_gap",
    "normalize",
    "pde_residual",
    "random_density",
    "redistribute",
    "refinement_study",
    "run_flow",
    "select_farthest",
    "select_lowest_income",
    "solve_eikonal",
    "solve_linear",
    "solve_nonlinear",
    "solve_payoff",
    "stress_test",
    "support",
    "tv_distance",
]
