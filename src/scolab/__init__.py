"""Stochastic compositional optimization lab.

Implements the SCGD and SCSC two-timescale optimizers for nested
objectives of the form ``mean_i f_i(mean_j g_j(x))`` on a ball-
constrained domain, together with exact synthetic benchmarks, certified
minimizer oracles, closed-form reference bounds, coupled stability
measurement, and reproducible Monte Carlo studies.
"""

from .core import Rng, project_ball
from .experiments import (
    ExcessRiskStudyResult,
    OptimizationStudyResult,
    TrackingStudyResult,
    excess_risk_study,
    fit_loglog_slope,
    optimization_study,
    tracking_study,
)
from .optimizer import (
    OptimizerConfig,
    Trajectory,
    Variant,
    run,
    schedule_preset,
)
from .oracle import (
    MinimizerCertificate,
    erm_minimizer,
    fd_gradient_check,
    population_minimizer,
    tracking_bound,
)
from .problems import (
    BoundParams,
    Dataset,
    PopulationLaw,
    benchmark_law,
    compute_constants,
    empirical_inner,
    empirical_risk,
    empirical_risk_grad,
    population_risk,
    sample_dataset,
)
from .stability import (
    CoupledResult,
    GapReport,
    StabilityEstimate,
    check_generalization_inequality,
    coupled_run,
    estimate_stability,
    make_neighbor,
)

__version__ = "0.1.0"
