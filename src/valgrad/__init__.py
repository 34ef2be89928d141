"""Gradient estimation for value functions of parametric convex problems.

Computes the gradient of p(u) = inf_x f(x, u) for the structured class
f(x, u) = <c, x> + h(b - A x + u) + k(x) via four estimators (analytic,
automatic, implicit and dual), with convergence-rate predictions, error
envelopes and a reproducible experiment harness.
"""

from .estimators import (
    EstimatorInapplicable,
    GradientEstimate,
    PrimalRun,
    analytic_estimator,
    automatic_estimator,
    dual_estimator,
    error_trace,
    fd_oracle,
    implicit_estimator,
    run_primal,
    run_toy,
    sensitivities,
)
from .funcs import (
    BallIndicator,
    ConvexFunction,
    ElasticNet,
    ElasticNetConjugate,
    EuclideanNorm,
    Huber,
    NonsmoothError,
    SmoothnessProfile,
    SquaredNorm,
    SquaredNormBall,
    soft_threshold,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    Series,
    emit_csv,
    emit_plots,
    read_csv,
    run_grid,
)
from .linalg import SpectralBounds, seeded_problem_data, spectral_bounds
from .problems import (
    DualObjective,
    StructuredProblem,
    ToyProblem,
    closed_form_f1,
    make_experiment_problem,
)
from .rates import (
    RateReport,
    RateUnavailable,
    EnvelopeConstants,
    cg_rate,
    f1_envelope_constants,
    rate_report,
    error_envelopes,
)
from .solvers import (
    NotSPDError,
    SolverConfig,
    accelerated_steps,
    conjugate_gradient,
    fista,
    prox_gradient,
    prox_gradient_steps,
    prox_of,
    step_policy,
)

__version__ = "0.1.0"
