"""Monte Carlo studies: tracking error, optimization error, excess risk.

Each study is a pure function of its keyword arguments and takes only
the settings it reads, so passing any other raises ``TypeError``.  A
study's ``law`` is a :class:`PopulationLaw` or the name of a
:func:`benchmark_law`.  Replicates run one after another through
``stability._replicates``, on child random streams keyed by (grid index,
replicate index), and aggregate in replicate order, so results are
bit-identical across reruns.  A study returns its rows, and has a result
type only when it also returns a study-level value (the fitted slope).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Rng
from .optimizer import OptimizerConfig, Variant, run, schedule_preset
from .oracle import erm_minimizer, population_minimizer, tracking_bound
from .problems import (
    PopulationLaw,
    benchmark_law,
    compute_constants,
    empirical_risk,
    population_risk,
    sample_dataset,
)
from .stability import _mean_se, _replicates
from .trust_region import _gram_modulus

__all__ = [
    "TrackingRow",
    "OptimizationRow",
    "ExcessRow",
    "ExcessRiskStudyResult",
    "tracking_study",
    "optimization_study",
    "excess_risk_study",
    "fit_loglog_slope",
]


def _resolve_law(law: PopulationLaw | str) -> PopulationLaw:
    """``law`` itself, or the benchmark law of that name."""
    return law if isinstance(law, PopulationLaw) else benchmark_law(law)


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
class ExcessRiskStudyResult:
    rows: list[ExcessRow]
    fitted_slope: float


def _log_step_grid(max_t: int, points: int) -> np.ndarray:
    """Unique integer steps, roughly log-spaced over [1, max_t], as int64.

    The rounded points are deduplicated as exact Python integers, not
    with ``numpy.unique``, which imports ``numpy.ma`` on its first call; and
    a top point that rounds past ``max_t`` in float is clamped to it.
    """
    raw = np.round(np.geomspace(1, max_t, num=min(points, max_t)))
    return np.array(sorted({min(int(t), max_t) for t in raw.tolist()}), dtype=np.int64)


def tracking_study(
    *,
    variant: Variant | str = Variant.SCGD,
    law: PopulationLaw | str = "convex",
    n: int = 40,
    m: int = 40,
    steps: int = 5000,
    eta: float = 1e-3,
    beta: float = 0.1,
    replicates: int = 50,
    seed: int = 0,
    domain_radius: float = 10.0,
    log_points: int = 40,
) -> list[TrackingRow]:
    """Mean squared tracking gap over replicates against its ceiling.

    One dataset is fixed per study; the bound uses the dataset's exact
    variance and Lipschitz constants but substitutes the measured mean
    initial gap for the a-priori ceiling, matching how the recursion is
    anchored in practice.  The gap is reported at ``log_points`` (at
    most) log-spaced steps.
    """
    if steps < 2:
        raise ValueError("tracking study needs steps >= 2")
    if log_points < 1:
        raise ValueError("tracking study needs log_points >= 1")
    if steps > 2**63:
        raise ValueError("tracking study needs steps <= 2**63: its step indices are int64")
    root = Rng(seed).split("tracking-study")
    data = sample_dataset(_resolve_law(law), n, m, root.split("data"))
    params = compute_constants(data, domain_radius)
    opt_cfg = OptimizerConfig(
        variant=variant,
        steps=steps,
        eta=eta,
        beta=beta,
        domain_radius=domain_radius,
        record_tracking=True,
    )
    # The ceiling's drift term opens with lip_f**2 * lip_g**3, whatever eta and
    # beta, and lip_f grows with the radius: where that factor overflows, no
    # step size gives a finite ceiling, so name the radius and the constant.
    try:
        drift_factor = params.lip_f**2 * params.lip_g**3
    except OverflowError:
        drift_factor = math.inf
    if not math.isfinite(drift_factor):
        raise ValueError(
            f"domain radius {float(domain_radius)!r} is too large for the tracking ceiling: "
            f"lip_f**2 * lip_g**3 overflows at lip_f = {params.lip_f:.6g}"
        )
    # With a zero anchor the t = 1 ceiling fails only where its decay factor,
    # drift or noise term does, and the first row would then fail whatever
    # the measured anchor: reject that before any replicate runs.
    tracking_bound(variant, 1, dataclasses.replace(params, d_y=0.0), eta, beta)

    # tracking_sq_errors[k] is the gap after k+1 tracker updates; the
    # decay term of the ceiling is indexed by the same k >= 1.  Column 0
    # anchors the ceiling; the log grid starts at 1.
    ts = _log_step_grid(steps - 1, log_points)
    columns = np.concatenate(([0], ts))
    def one(rep_rng: Rng) -> np.ndarray:
        return run(data, opt_cfg, rep_rng).tracking_sq_errors[columns]

    mean, se = _mean_se(_replicates(one, root, "rep-", replicates))

    bound_params = dataclasses.replace(params, d_y=mean[0])
    return [
        TrackingRow(
            t=int(t),
            mean_sq_error=mean[k],
            se=se[k],
            bound=tracking_bound(variant, int(t), bound_params, eta, beta),
        )
        for k, t in enumerate(ts, start=1)
    ]


def optimization_study(
    *,
    step_grid: tuple[tuple[int, float, float], ...],
    variant: Variant | str = Variant.SCGD,
    law: PopulationLaw | str = "convex",
    n: int = 40,
    m: int = 40,
    replicates: int = 50,
    seed: int = 0,
    domain_radius: float = 10.0,
    output_mode: str = "uniform_average",
) -> list[OptimizationRow]:
    """Mean empirical suboptimality of the selected output per grid point.

    ``step_grid`` holds (T, eta, beta) triples.  The dataset is fixed
    across the whole study so the reference value is a single certified
    solve.
    """
    if not step_grid:
        raise ValueError("optimization study needs a nonempty step_grid")
    root = Rng(seed).split("optimization-study")
    data = sample_dataset(_resolve_law(law), n, m, root.split("data"))
    sigma = _gram_modulus(data.a_bar)[0] if output_mode == "sigma_weighted" else None
    if sigma == 0.0:
        raise ValueError(
            "sigma_weighted output needs a strongly convex objective, but this dataset's "
            "empirical modulus (the least eigenvalue of a_bar^T a_bar) is 0"
        )
    cert = erm_minimizer(data, domain_radius)

    rows = []
    for gi, (steps, eta, beta) in enumerate(step_grid):
        opt_cfg = OptimizerConfig(
            variant=variant,
            steps=steps,
            eta=eta,
            beta=beta,
            domain_radius=domain_radius,
            output_mode=output_mode,
            sigma=sigma,
        )

        def one(rep_rng: Rng) -> float:
            return empirical_risk(data, run(data, opt_cfg, rep_rng).final_output) - cert.value

        gaps = _replicates(one, root, f"grid-{gi}-rep-", replicates)
        rows.append(OptimizationRow(steps, eta, beta, *_mean_se(gaps)))
    return rows


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x).

    Needs at least two distinct x values and positive xs and ys.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(set(xs.tolist())) < 2:
        raise ValueError("need at least two distinct x values to fit a slope")
    if not (xs > 0).all() or not (ys > 0).all():
        raise ValueError("a log-log slope needs positive values")
    lx, ly = np.log(xs), np.log(ys)
    design = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    return float(coef[0])


def excess_risk_study(
    *,
    size_grid: tuple[int, ...],
    variant: Variant | str = Variant.SCGD,
    convexity: str = "convex",
    law: PopulationLaw | str = "convex",
    replicates: int = 50,
    seed: int = 0,
    domain_radius: float = 10.0,
    output_mode: str = "uniform_average",
    t_max: int | None = None,
) -> ExcessRiskStudyResult:
    """Mean population excess risk under the published step presets.

    Each replicate draws a fresh dataset (expectation jointly over data
    and algorithm), runs the ``convexity`` preset schedule, capped at
    ``t_max``, for its n = m entry of ``size_grid``, and scores the
    output against the certified population minimum.  The fitted slope
    is NaN unless the grid holds at least two distinct sizes.
    """
    if not size_grid:
        raise ValueError("excess_risk study needs a nonempty size_grid")
    law = _resolve_law(law)
    sigma = _gram_modulus(law.a0)[0] if output_mode == "sigma_weighted" else None
    if sigma == 0.0:
        raise ValueError(
            "sigma_weighted output needs a strongly convex law, but this law's "
            "population modulus (the least eigenvalue of a0^T a0) is 0"
        )
    root = Rng(seed).split("excess-study")
    pop = population_minimizer(law, domain_radius)

    rows = []
    for gi, size in enumerate(size_grid):
        steps, eta, beta = schedule_preset(variant, convexity, size, size, t_max=t_max)
        opt_cfg = OptimizerConfig(
            variant=variant,
            steps=steps,
            eta=eta,
            beta=beta,
            domain_radius=domain_radius,
            output_mode=output_mode,
            sigma=sigma,
        )

        def one(rep_rng: Rng) -> float:
            data = sample_dataset(law, size, size, rep_rng.split("data"))
            out = run(data, opt_cfg, rep_rng.split("opt")).final_output
            return population_risk(law, out) - pop.value

        excess = _replicates(one, root, f"grid-{gi}-rep-", replicates)
        rows.append(ExcessRow(size, size, steps, eta, beta, *_mean_se(excess)))
    if len({r.n for r in rows}) >= 2:
        slope = fit_loglog_slope(
            [r.n for r in rows], [max(r.excess_mean, 1e-300) for r in rows]
        )
    else:
        slope = float("nan")
    return ExcessRiskStudyResult(rows, slope)
