"""Monte Carlo studies: tracking error, optimization error, excess risk.

Every study is a pure function of its config.  Replicates run one after
another on child random streams keyed by (grid index, replicate index)
and aggregate in replicate order, so results are bit-identical across
reruns.  ``StudyConfig.threads`` is validated but has no effect.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Rng
from .optimizer import OptimizerConfig, Variant, run, schedule_preset
from .oracle import erm_minimizer, population_minimizer, tracking_bound
from .problems import (
    BoundParams,
    PopulationLaw,
    benchmark_law,
    compute_constants,
    empirical_risk,
    population_risk,
    sample_dataset,
)
from .stability import _mean_se

__all__ = [
    "StudyConfig",
    "TrackingRow",
    "OptimizationRow",
    "ExcessRow",
    "TrackingStudyResult",
    "OptimizationStudyResult",
    "ExcessRiskStudyResult",
    "tracking_study",
    "optimization_study",
    "excess_risk_study",
    "fit_loglog_slope",
]

STUDIES = ("tracking", "optimization", "excess_risk")


@dataclass(frozen=True)
class StudyConfig:
    """Shared experiment configuration.

    ``step_grid`` feeds the optimization study with (T, eta, beta)
    triples; ``size_grid`` feeds the excess-risk study with n = m values.
    The tracking study uses the scalar ``steps``, ``eta``, ``beta``.
    """

    study: str
    variant: Variant = Variant.SCGD
    convexity: str = "convex"
    benchmark: str = "convex"
    law: PopulationLaw | None = None
    n: int = 40
    m: int = 40
    steps: int = 5000
    eta: float = 1e-3
    beta: float = 0.1
    step_grid: tuple[tuple[int, float, float], ...] = ()
    size_grid: tuple[int, ...] = ()
    replicates: int = 50
    seed: int = 0
    threads: int = 1
    domain_radius: float = 10.0
    tracking_c: float = 2.0
    log_points: int = 40
    output_mode: str = "uniform_average"
    x0: np.ndarray | None = None
    t_max: int | None = None

    def __post_init__(self) -> None:
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}")
        if self.replicates < 2:
            raise ValueError("replicates must be >= 2")
        if self.study == "tracking" and self.steps < 2:
            raise ValueError("tracking study needs steps >= 2")
        if self.study == "optimization" and not self.step_grid:
            raise ValueError("optimization study needs a nonempty step_grid")
        if self.study == "excess_risk" and not self.size_grid:
            raise ValueError("excess_risk study needs a nonempty size_grid")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def resolve_law(self) -> PopulationLaw:
        return self.law if self.law is not None else benchmark_law(self.benchmark)


class TrackingRow(NamedTuple):
    t: int
    mean_sq_error: float
    se: float
    bound: float


class OptimizationRow(NamedTuple):
    steps: int
    eta: float
    beta: float
    gap_mean: float
    gap_se: float


class ExcessRow(NamedTuple):
    n: int
    m: int
    steps: int
    eta: float
    beta: float
    excess_mean: float
    excess_se: float


@dataclass(frozen=True)
class TrackingStudyResult:
    rows: list[TrackingRow]
    params: BoundParams
    measured_d_y: float


@dataclass(frozen=True)
class OptimizationStudyResult:
    rows: list[OptimizationRow]
    minimizer_value: float


@dataclass(frozen=True)
class ExcessRiskStudyResult:
    rows: list[ExcessRow]
    fitted_slope: float
    t_max: int | None = None


def _log_step_grid(max_t: int, points: int) -> np.ndarray:
    """Unique integer steps, roughly log-spaced over [1, max_t]."""
    raw = np.geomspace(1, max_t, num=min(points, max_t))
    return np.unique(np.round(raw).astype(np.int64))


def tracking_study(cfg: StudyConfig) -> TrackingStudyResult:
    """Mean squared tracking gap over replicates against its ceiling.

    One dataset is fixed per study; the bound uses the dataset's exact
    variance and Lipschitz constants but substitutes the measured mean
    initial gap for the a-priori ceiling, matching how the recursion is
    anchored in practice.
    """
    if cfg.study != "tracking":
        raise ValueError("config is not a tracking study")
    law = cfg.resolve_law()
    root = Rng(cfg.seed).split("tracking-study")
    data = sample_dataset(law, cfg.n, cfg.m, root.split("data"))
    params = compute_constants(data, cfg.domain_radius)
    opt_cfg = OptimizerConfig(
        variant=cfg.variant,
        steps=cfg.steps,
        eta=cfg.eta,
        beta=cfg.beta,
        domain_radius=cfg.domain_radius,
        record_tracking=True,
    )

    # tracking_sq_errors[k] is the gap after k+1 tracker updates; the
    # decay term of the ceiling is indexed by the same k >= 1.  Column 0
    # anchors the ceiling; the log grid starts at 1.
    ts = _log_step_grid(cfg.steps - 1, cfg.log_points)
    columns = np.concatenate(([0], ts))
    errors = np.array([
        run(data, opt_cfg, root.split(f"rep-{rep}")).tracking_sq_errors[columns]
        for rep in range(cfg.replicates)
    ])
    mean, se = _mean_se(errors)

    measured_d_y = mean[0]
    bound_params = dataclasses.replace(params, d_y=measured_d_y, free_c=cfg.tracking_c)
    rows = [
        TrackingRow(
            t=int(t),
            mean_sq_error=mean[k],
            se=se[k],
            bound=tracking_bound(cfg.variant, int(t), bound_params, cfg.eta, cfg.beta).value,
        )
        for k, t in enumerate(ts, start=1)
    ]
    return TrackingStudyResult(rows=rows, params=bound_params, measured_d_y=measured_d_y)


def optimization_study(cfg: StudyConfig) -> OptimizationStudyResult:
    """Mean empirical suboptimality of the selected output per grid point.

    The dataset is fixed across the whole study so the reference value
    is a single certified solve.
    """
    if cfg.study != "optimization":
        raise ValueError("config is not an optimization study")
    law = cfg.resolve_law()
    root = Rng(cfg.seed).split("optimization-study")
    data = sample_dataset(law, cfg.n, cfg.m, root.split("data"))
    cert = erm_minimizer(data, cfg.domain_radius)
    sigma = None
    if cfg.output_mode == "sigma_weighted":
        sigma = compute_constants(data, cfg.domain_radius).sigma

    rows = []
    for gi, (steps, eta, beta) in enumerate(cfg.step_grid):
        opt_cfg = OptimizerConfig(
            variant=cfg.variant,
            steps=steps,
            eta=eta,
            beta=beta,
            domain_radius=cfg.domain_radius,
            x0=cfg.x0,
            output_mode=cfg.output_mode,
            sigma=sigma,
        )

        gaps = []
        for rep in range(cfg.replicates):
            traj = run(data, opt_cfg, root.split(f"grid-{gi}-rep-{rep}"))
            gaps.append(empirical_risk(data, traj.final_output) - cert.value)
        rows.append(OptimizationRow(steps, eta, beta, *_mean_se(np.asarray(gaps))))
    return OptimizationStudyResult(rows=rows, minimizer_value=cert.value)


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if lx.shape[0] < 2:
        raise ValueError("need at least two points to fit a slope")
    design = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    return float(coef[0])


def excess_risk_study(cfg: StudyConfig) -> ExcessRiskStudyResult:
    """Mean population excess risk under the published step presets.

    Each replicate draws a fresh dataset (expectation jointly over data
    and algorithm), runs the preset schedule for its n = m grid point,
    and scores the output against the certified population minimum.
    """
    if cfg.study != "excess_risk":
        raise ValueError("config is not an excess_risk study")
    law = cfg.resolve_law()
    root = Rng(cfg.seed).split("excess-study")
    pop = population_minimizer(law, cfg.domain_radius)
    sigma = None
    if cfg.output_mode == "sigma_weighted":
        sigma = max(float(np.linalg.eigvalsh(law.a0.T @ law.a0)[0]), 0.0)

    rows = []
    for gi, size in enumerate(cfg.size_grid):
        steps, eta, beta = schedule_preset(
            cfg.variant, cfg.convexity, size, size, t_max=cfg.t_max
        )
        opt_cfg = OptimizerConfig(
            variant=cfg.variant,
            steps=steps,
            eta=eta,
            beta=beta,
            domain_radius=cfg.domain_radius,
            output_mode=cfg.output_mode,
            sigma=sigma,
        )

        excess = []
        for rep in range(cfg.replicates):
            rep_rng = root.split(f"grid-{gi}-rep-{rep}")
            data = sample_dataset(law, size, size, rep_rng.split("data"))
            traj = run(data, opt_cfg, rep_rng.split("opt"))
            excess.append(population_risk(law, traj.final_output) - pop.value)
        rows.append(ExcessRow(size, size, steps, eta, beta, *_mean_se(np.asarray(excess))))
    if len(rows) >= 2:
        slope = fit_loglog_slope(
            [r.n for r in rows], [max(r.excess_mean, 1e-300) for r in rows]
        )
    else:
        slope = float("nan")
    return ExcessRiskStudyResult(rows=rows, fitted_slope=slope, t_max=cfg.t_max)
