"""Independent reference computations for the affine-quadratic family.

Closed-form constrained minimizers (with projected-gradient fallback and
cross-checking), finite-difference gradient validation, and the
closed-form reference ceiling on the tracking error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import as_vector, project_ball
from .optimizer import Variant
from .problems import (
    BoundParams,
    Dataset,
    PopulationLaw,
    empirical_risk,
    empirical_risk_grad,
)

__all__ = [
    "MinimizerCertificate",
    "BoundValue",
    "erm_minimizer",
    "population_minimizer",
    "tracking_bound",
    "fd_gradient_check",
]

KKT_TOL = 1e-10


@dataclass(frozen=True)
class MinimizerCertificate:
    """A constrained minimizer together with its optimality evidence.

    ``kkt_residual`` is the fixed-point residual ||x - P(x - grad F(x))||
    of the projected unit-step map, which vanishes exactly at a
    constrained minimizer.
    """

    x_star: np.ndarray
    value: float
    method: str
    kkt_residual: float


@dataclass(frozen=True)
class BoundValue:
    """Evaluated right-hand side of a reference bound formula."""

    formula: str
    value: float
    inputs: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.value) and self.value >= 0):
            raise ValueError("bound value must be finite and nonnegative")


def _kkt_residual(x, grad, radius) -> float:
    return float(np.linalg.norm(x - project_ball(x - grad, radius)))


def _ball_quadratic_min(gram, rhs, const, radius, method, max_iters=1_000_000):
    """Minimize 0.5 x'gram x - rhs'x + const over the radius ball.

    ``method`` selects the solve path: "auto" uses the dense solution and
    falls back to projected gradient only when it leaves the ball, while
    "projected_gradient" forces the iterative path from the origin.
    """
    eigs = np.linalg.eigvalsh(gram)
    smooth = max(float(eigs[-1]), 0.0)

    def value(x):
        return 0.5 * float(x @ gram @ x) - float(rhs @ x) + const

    def grad(x):
        return gram @ x - rhs

    if method not in ("auto", "closed_form", "projected_gradient"):
        raise ValueError(f"unknown solve method {method!r}")

    if method != "projected_gradient":
        # Rank-deficient mean Gram matrices are routine here (wide inner
        # maps), so detect them and take the minimum-norm solution.
        rank_deficient = float(eigs[0]) <= max(smooth, 1.0) * 1e-12
        if rank_deficient:
            x, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
            tag = "closed_form_min_norm"
        else:
            x = np.linalg.solve(gram, rhs)
            tag = "closed_form"
        if float(np.linalg.norm(x)) <= radius:
            return x, value(x), tag, _kkt_residual(x, grad(x), radius)
        if method == "closed_form":
            raise ValueError("unconstrained solution leaves the ball")
        x = project_ball(x, radius)
    else:
        x = np.zeros(gram.shape[0])

    if smooth == 0.0:
        # Zero quadratic part: the gradient is constant, so one projected
        # step onto the ball along -grad is optimal.
        g = grad(x)
        x = project_ball(x - radius * g / max(float(np.linalg.norm(g)), 1e-300), radius)
        return x, value(x), "projected_gradient_high_precision", _kkt_residual(x, grad(x), radius)

    step = 1.0 / smooth
    for _ in range(max_iters):
        g = grad(x)
        if _kkt_residual(x, g, radius) <= KKT_TOL:
            break
        x = project_ball(x - step * g, radius)
    residual = _kkt_residual(x, grad(x), radius)
    if residual > 1e-9:
        raise RuntimeError(f"projected gradient stalled at residual {residual:.3e}")
    return x, value(x), "projected_gradient_high_precision", residual


def erm_minimizer(dataset: Dataset, radius: float, method: str = "auto") -> MinimizerCertificate:
    """Certified minimizer of the nested empirical objective over the ball."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("invalid domain")
    a_bar = dataset.a_bar
    gram = a_bar.T @ a_bar
    rhs = a_bar.T @ (dataset.c_bar - dataset.b_bar)
    const = empirical_risk(dataset, np.zeros(dataset.p))
    x, value, tag, residual = _ball_quadratic_min(gram, rhs, const, radius, method)
    return MinimizerCertificate(x_star=x, value=value, method=tag, kkt_residual=residual)


def population_minimizer(law: PopulationLaw, radius: float, method: str = "auto") -> MinimizerCertificate:
    """Certified minimizer of the population objective over the ball."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("invalid domain")
    gram = law.a0.T @ law.a0
    rhs = law.a0.T @ (law.c0 - law.b0)
    diff0 = law.b0 - law.c0
    const = 0.5 * float(diff0 @ diff0) + 0.5 * law.outer_variance
    x, value, tag, residual = _ball_quadratic_min(gram, rhs, const, radius, method)
    return MinimizerCertificate(x_star=x, value=value, method=tag, kkt_residual=residual)


def tracking_bound(
    variant: Variant,
    t: int,
    params: BoundParams,
    eta: float,
    beta: float,
) -> BoundValue:
    """Closed-form ceiling on the expected squared tracking gap at step t.

    SCGD:  (c/e)^c (t beta)^-c d_y + lip_f^2 lip_g^3 eta^2 / beta^2 + 2 var_g beta
    SCSC:  (c/e)^c (t beta)^-c d_y + lip_f^2 lip_g^3 eta^2 / beta   + 2 var_g beta
    """
    if t < 1:
        raise ValueError("bound undefined at t=0")
    if not (eta >= 0 and 0.0 < beta <= 1.0):
        raise ValueError("need eta >= 0 and beta in (0, 1]")
    c = params.free_c
    decay = (c / np.e) ** c * (t * beta) ** (-c) * params.d_y
    drift = params.lip_f**2 * params.lip_g**3 * eta**2
    drift /= beta**2 if variant is Variant.SCGD else beta
    noise = 2.0 * params.var_g * beta
    return BoundValue(
        formula=f"tracking_{variant.value}",
        value=float(decay + drift + noise),
        inputs={"t": t, "eta": eta, "beta": beta, "params": params},
    )


def fd_gradient_check(dataset: Dataset, x, h: float = 1e-5) -> float:
    """Max coordinatewise relative error of the analytic gradient.

    Compares :func:`empirical_risk_grad` against central differences of
    :func:`empirical_risk` with step ``h``; the relative error of
    coordinate k is |g_k - fd_k| / (1 + |fd_k|).
    """
    if not h > 0:
        raise ValueError("h must be positive")
    point = as_vector(x, dim=dataset.p)
    analytic = empirical_risk_grad(dataset, point)
    worst = 0.0
    for k in range(point.shape[0]):
        bump = np.zeros_like(point)
        bump[k] = h
        fd = (empirical_risk(dataset, point + bump) - empirical_risk(dataset, point - bump)) / (2.0 * h)
        worst = max(worst, abs(analytic[k] - fd) / (1.0 + abs(fd)))
    return worst
