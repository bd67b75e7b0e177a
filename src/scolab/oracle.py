"""Independent reference computations for the affine-quadratic family.

Exact ball-constrained minimizers (one trust-region solve, cross-checked
against a projected-gradient reference), finite-difference gradient
validation, and the closed-form reference ceiling on the tracking error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import _norm, as_vector, project_ball
from .optimizer import Variant
from .problems import (
    BoundParams,
    Dataset,
    PopulationLaw,
    empirical_risk,
    empirical_risk_grad,
    population_risk,
)
from .trust_region import _min_quadratic_on_ball

__all__ = [
    "MinimizerCertificate",
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
    constrained minimizer.  ``method`` is one of the three tags of the
    exact solve, ``closed_form`` (interior, full rank),
    ``closed_form_min_norm`` (interior, rank-deficient: the minimum-norm
    minimizer) or ``trust_region`` (on the sphere), or else
    ``projected_gradient_high_precision`` from the iterative reference.
    """

    x_star: np.ndarray
    value: float
    method: str
    kkt_residual: float


def _kkt_residual(x, grad, radius) -> float:
    return _norm(x - project_ball(x - grad, radius))


def _projected_gradient(gram, rhs, radius, max_iters=1_000_000) -> np.ndarray:
    """Iterative reference, independent of the exact solve: projected
    gradient from the origin with step 1/L, run to a KKT residual of KKT_TOL."""
    smooth = float(np.linalg.eigvalsh(gram)[-1])
    step = 1.0 / smooth if smooth > 0 else 0.0  # zero gram: rhs = 0 and x = 0 is optimal
    x = np.zeros(gram.shape[0])
    for _ in range(max_iters):
        g = gram @ x - rhs
        if _kkt_residual(x, g, radius) <= KKT_TOL:
            break
        x = project_ball(x - step * g, radius)
    residual = _kkt_residual(x, gram @ x - rhs, radius)
    if residual > 1e-9:
        raise RuntimeError(f"projected gradient stalled at residual {residual:.3e}")
    return x


def _certify(gram, rhs, risk, radius, method) -> MinimizerCertificate:
    """Certified argmin over the radius ball of ``risk``, the quadratic
    0.5 x'gram x - rhs'x + const.  The value is ``risk(x)``, a sum of
    squares, because the expanded form cancels and can read below zero."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("invalid domain")
    if method == "auto":
        # The solve works in units of the radius, which overflow below about
        # 1e-308: name the radius instead of warning and certifying a point.
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                x, tag = _min_quadratic_on_ball(gram, rhs, radius)
        except FloatingPointError:
            raise ValueError(f"domain radius {float(radius)!r} is too small: "
                             "the minimizer solve overflows") from None
    elif method == "projected_gradient":
        x, tag = _projected_gradient(gram, rhs, radius), "projected_gradient_high_precision"
    else:
        raise ValueError(f"unknown solve method {method!r}")
    return MinimizerCertificate(x, risk(x), tag, _kkt_residual(x, gram @ x - rhs, radius))


def erm_minimizer(dataset: Dataset, radius: float, method: str = "auto") -> MinimizerCertificate:
    """Certified minimizer of the nested empirical objective over the ball."""
    a_bar = dataset.a_bar
    gram = a_bar.T @ a_bar
    rhs = a_bar.T @ (dataset.c_bar - dataset.b_bar)
    return _certify(gram, rhs, partial(empirical_risk, dataset), radius, method)


def population_minimizer(law: PopulationLaw, radius: float, method: str = "auto") -> MinimizerCertificate:
    """Certified minimizer of the population objective over the ball."""
    gram = law.a0.T @ law.a0
    rhs = law.a0.T @ (law.c0 - law.b0)
    return _certify(gram, rhs, partial(population_risk, law), radius, method)


def tracking_bound(
    variant: Variant,
    t: int,
    params: BoundParams,
    eta: float,
    beta: float,
) -> float:
    """Closed-form ceiling on the expected squared tracking gap at step t.

    SCGD:  (c/e)^c (t beta)^-c d_y + lip_f^2 lip_g^3 eta^2 / beta^2 + 2 var_g beta
    SCSC:  (c/e)^c (t beta)^-c d_y + lip_f^2 lip_g^3 eta^2 / beta   + 2 var_g beta

    Raises ``ValueError`` when the value is not finite.
    """
    if t < 1:
        raise ValueError("bound undefined at t=0")
    if not (eta >= 0 and 0.0 < beta <= 1.0):
        raise ValueError("need eta >= 0 and beta in (0, 1]")
    c = params.free_c
    try:
        decay = (c / np.e) ** c * (t * beta) ** (-c) * params.d_y
        drift = params.lip_f**2 * params.lip_g**3 * eta**2
        drift /= beta**2 if variant is Variant.SCGD else beta
        noise = 2.0 * params.var_g * beta
        value = decay + drift + noise
    except (OverflowError, ZeroDivisionError):
        # Float ** and / raise where * would give inf; both are rejected below.
        value = np.inf
    if not (np.isfinite(value) and value >= 0):
        raise ValueError("bound value must be finite and nonnegative")
    return float(value)


def fd_gradient_check(dataset: Dataset, x, h: float = 1e-5) -> float:
    """Max coordinatewise relative error of the analytic gradient.

    Compares :func:`empirical_risk_grad` against central differences of
    :func:`empirical_risk` with step ``h``; the relative error of
    coordinate k is |g_k - fd_k| / (1 + |fd_k|).  The result is NaN when
    any coordinate's error is, for example where the risk overflows.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    point = as_vector(x, dim=dataset.p)
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):
        analytic = empirical_risk_grad(dataset, point)
        for k in range(point.shape[0]):
            bump = np.zeros_like(point)
            bump[k] = h
            fd = empirical_risk(dataset, point + bump) - empirical_risk(dataset, point - bump)
            fd /= 2.0 * h
            errors.append(abs(analytic[k] - fd) / (1.0 + abs(fd)))
    return float(np.max(errors))
