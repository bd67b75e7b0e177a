"""Two-timescale stochastic compositional optimizers.

Each step samples one inner index j and one outer index i uniformly with
replacement, advances the inner tracker

    SCGD:  y <- (1 - beta) * y + beta * g_j(x)
    SCSC:  y <- (1 - beta) * (y + g_j(x) - g_j(x_prev)) + beta * g_j(x)

and then takes the projected chain-rule step

    x <- project_ball(x - eta * jac_j(x) @ grad f_i(y), radius).

Step sizes are constant over a run; ``_run_with_indices`` is the one
implementation of the step, and ``_draw_indices`` the one draw of a
run's indices, which coupled runs share.  The step uses ``ndarray.dot``
and per-run lists of the data rows on purpose: ``@`` and numpy scalar
indexing reach the same BLAS calls, so they give the same bits, but
they cost microseconds more per step.  Outputs can be the last iterate,
the uniform average of all iterates, a geometrically weighted average
suited to strongly convex objectives, or a uniformly drawn iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Rng, as_vector, project_ball
from .problems import Dataset

__all__ = [
    "Variant",
    "OptimizerConfig",
    "Trajectory",
    "run",
    "schedule_preset",
]

OUTPUT_MODES = ("last", "uniform_average", "sigma_weighted", "uniform_random")

MAX_STORED_ITERATES = 4096


class Variant(Enum):
    SCGD = "scgd"
    SCSC = "scsc"


@dataclass(frozen=True)
class OptimizerConfig:
    """Run parameters for :func:`run`.

    ``x0`` and ``y0`` default to the origin.  ``eta = 0`` is allowed as a
    degenerate no-movement run (the parameter vector never leaves ``x0``),
    which is occasionally useful as a zero-iteration stand-in.
    """

    variant: Variant
    steps: int
    eta: float
    beta: float
    domain_radius: float = 10.0
    x0: np.ndarray | None = None
    y0: np.ndarray | None = None
    output_mode: str = "last"
    sigma: float | None = None
    record_tracking: bool = False

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("eta must be a finite nonnegative real")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if not (np.isfinite(self.domain_radius) and self.domain_radius > 0):
            raise ValueError("invalid domain")
        if self.output_mode not in OUTPUT_MODES:
            raise ValueError(f"unknown output mode {self.output_mode!r}")
        if self.output_mode == "sigma_weighted":
            if self.sigma is None or not self.sigma > 0:
                raise ValueError("sigma_weighted output needs sigma > 0")
            if self.sigma * self.eta >= 2.0:
                raise ValueError("unstable weights")
        if self.x0 is not None:
            x0 = as_vector(self.x0)
            if float(np.linalg.norm(x0)) > self.domain_radius * (1 + 1e-12):
                raise ValueError("x0 lies outside the domain")
            object.__setattr__(self, "x0", x0)
        if self.y0 is not None:
            object.__setattr__(self, "y0", as_vector(self.y0))


@dataclass(frozen=True)
class Trajectory:
    """Recorded history of a run.

    ``stored_steps`` lists which iterates (1-based step numbers) are kept
    in ``iterates``; long runs are thinned to a uniform stride of at most
    4096 stored points, but the running averages are exact regardless.
    ``final_output`` is the output selected by the config's ``output_mode``.
    ``tracking_sq_errors[t]`` is the squared gap between the tracker and
    the empirical inner mean at the pre-step point, for t = 0 .. T-1.
    """

    stored_steps: np.ndarray
    iterates: np.ndarray
    last: np.ndarray
    uniform_avg: np.ndarray
    final_output: np.ndarray
    tracking_sq_errors: np.ndarray | None


def _storage_stride(steps: int) -> int:
    stride = -(-steps // MAX_STORED_ITERATES)  # ceil division
    return max(stride, 1)


def _draw_indices(
    dataset: Dataset, cfg: OptimizerConfig, rng: Rng
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """A run's randomness, drawn up front from ``rng``: the inner index
    block, then the outer index block, then the uniform output draw when
    that mode is requested.  Coupled runs share one such draw."""
    gen = rng.generator()
    j_idx = gen.integers(0, dataset.m, size=cfg.steps, dtype=np.int64)
    i_idx = gen.integers(0, dataset.n, size=cfg.steps, dtype=np.int64)
    tau = None
    if cfg.output_mode == "uniform_random":
        tau = int(gen.integers(1, cfg.steps + 1))
    return j_idx, i_idx, tau


def run(dataset: Dataset, cfg: OptimizerConfig, rng: Rng) -> Trajectory:
    """Execute a full optimization run; deterministic given ``rng``."""
    return _run_with_indices(dataset, cfg, *_draw_indices(dataset, cfg, rng))


def _run_with_indices(
    dataset: Dataset,
    cfg: OptimizerConfig,
    j_idx: np.ndarray,
    i_idx: np.ndarray,
    tau: int | None,
) -> Trajectory:
    steps = cfg.steps
    p, d = dataset.p, dataset.d
    a_rows = list(dataset.inner_a)
    b_rows = list(dataset.inner_b)
    c_rows = list(dataset.outer_c)

    x = np.zeros(p) if cfg.x0 is None else cfg.x0.copy()
    y = np.zeros(d) if cfg.y0 is None else cfg.y0.copy()
    x_prev = x
    eta = cfg.eta
    beta = cfg.beta
    one_minus_beta = 1.0 - beta
    radius = cfg.domain_radius
    # project_ball moves x only if ||x|| > R; as sqrt(fl(R * R)) == R unless
    # R * R underflows, this pre-test skips only points it would not move.
    # The clamp keeps that true when R * R overflows.
    radius_sq = min(radius * radius, np.finfo(float).max)
    scsc = cfg.variant is Variant.SCSC and beta != 1.0

    track = None
    if cfg.record_tracking:
        track = np.empty(steps)
        a_bar = dataset.a_bar
        b_bar = dataset.b_bar
    stride = _storage_stride(steps)
    stored_iterates = []
    usum = np.zeros(p)
    sigma_mode = cfg.output_mode == "sigma_weighted"
    if sigma_mode:
        rho = 1.0 - cfg.sigma * eta / 2.0
        wacc = np.zeros(p)
        wsum = 0.0
    drawn_iterate = None

    # A huge step may overflow ||x||^2 to inf; the pre-test then fires and
    # project_ball handles it, so numpy's overflow warning is noise.
    with np.errstate(over="ignore"):
        for t, (j, i) in enumerate(zip(j_idx.tolist(), i_idx.tolist())):
            a_j = a_rows[j]
            b_j = b_rows[j]
            g_cur = a_j.dot(x) + b_j
            if scsc:
                g_prev = a_j.dot(x_prev) + b_j
                y = one_minus_beta * (y + g_cur - g_prev) + beta * g_cur
            else:
                y = one_minus_beta * y + beta * g_cur
            if track is not None:
                gap = y - (a_bar.dot(x) + b_bar)
                track[t] = gap.dot(gap)
            x_new = x - eta * (y - c_rows[i]).dot(a_j)
            if x_new.dot(x_new) > radius_sq:
                x_new = project_ball(x_new, radius)
            x_prev = x
            x = x_new
            usum += x
            if sigma_mode:
                wacc *= rho
                wacc += x
                wsum = rho * wsum + 1.0
            if (t + 1) % stride == 0:
                stored_iterates.append(x)
            if t + 1 == tau:
                drawn_iterate = x

    stored_steps = np.arange(stride, steps + 1, stride, dtype=np.int64)
    if steps % stride:
        stored_steps = np.append(stored_steps, steps)
        stored_iterates.append(x)
    uniform_avg = usum / steps
    if cfg.output_mode == "last":
        final = x
    elif cfg.output_mode == "uniform_average":
        final = uniform_avg
    elif sigma_mode:
        final = wacc / wsum
    else:
        final = drawn_iterate

    return Trajectory(
        stored_steps=stored_steps,
        iterates=np.array(stored_iterates),
        last=x,
        uniform_avg=uniform_avg,
        final_output=final,
        tracking_sq_errors=track,
    )


# (iteration exponent, eta exponent, beta exponent) per variant and regime
_PRESETS = {
    (Variant.SCGD, "convex"): (3.5, 6.0 / 7.0, 4.0 / 7.0),
    (Variant.SCSC, "convex"): (2.5, 4.0 / 5.0, 4.0 / 5.0),
    (Variant.SCGD, "strongly_convex"): (5.0 / 3.0, 9.0 / 10.0, 3.0 / 5.0),
    (Variant.SCSC, "strongly_convex"): (7.0 / 6.0, 6.0 / 7.0, 6.0 / 7.0),
}


def schedule_preset(
    variant: Variant,
    convexity: str,
    n: int,
    m: int,
    t_max: int | None = None,
) -> tuple[int, float, float]:
    """Published (T, eta, beta) rule for the requested regime.

    T = ceil(max(n, m) ** exponent) with eta = T^-a and beta = T^-b; the
    optional ``t_max`` caps T (the step sizes then follow the capped T).
    """
    if convexity not in ("convex", "strongly_convex"):
        raise ValueError(f"unknown convexity {convexity!r}")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    exponent, a, b = _PRESETS[(variant, convexity)]
    # Guard against pow() landing an ulp above an exact integer.
    steps = int(math.ceil(float(max(n, m)) ** exponent - 1e-9))
    steps = max(steps, 1)
    if t_max is not None:
        steps = min(steps, int(t_max))
    return steps, float(steps) ** -a, float(steps) ** -b
