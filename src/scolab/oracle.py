"""Independent reference computations for the affine-quadratic family.

Exact ball-constrained minimizers (one trust-region solve),
finite-difference gradient validation, and the closed-form reference
ceiling on the tracking error.
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

_DECAY_EXPONENT = 2.0  # c in tracking_bound


@dataclass(frozen=True)
class MinimizerCertificate:
    """A constrained minimizer together with its optimality evidence.

    ``kkt_residual`` is the fixed-point residual ||x - P(x - grad F(x))||
    of the projected unit-step map, which vanishes exactly at a
    constrained minimizer.  ``method`` is the tag of the exact solve:
    ``closed_form`` (interior, full rank), ``closed_form_min_norm``
    (interior, rank-deficient: the minimum-norm minimizer) or
    ``trust_region`` (on the sphere).
    """

    x_star: np.ndarray
    value: float
    method: str
    kkt_residual: float


def _kkt_residual(x, grad, radius) -> float:
    return _norm(x - project_ball(x - grad, radius))


def _certify(a, b, c, risk, radius) -> MinimizerCertificate:
    """Certified argmin over the radius ball of ``risk``, 0.5 ||a x + b - c||^2
    plus a constant, from its normal equations.  The value is ``risk(x)``, a sum
    of squares, because the expanded quadratic cancels and can read below zero."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("invalid domain")
    gram = a.T @ a
    rhs = a.T @ (c - b)
    # The solve works in units of the radius, which overflow below about
    # 1e-308: name the radius instead of warning and certifying a point.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            x, tag = _min_quadratic_on_ball(gram, rhs, radius)
    except FloatingPointError:
        raise ValueError(f"domain radius {float(radius)!r} is too small: "
                         "the minimizer solve overflows") from None
    return MinimizerCertificate(x, risk(x), tag, _kkt_residual(x, gram @ x - rhs, radius))


def erm_minimizer(dataset: Dataset, radius: float) -> MinimizerCertificate:
    """Certified minimizer of the nested empirical objective over the ball."""
    risk = partial(empirical_risk, dataset)
    return _certify(dataset.a_bar, dataset.b_bar, dataset.c_bar, risk, radius)


def population_minimizer(law: PopulationLaw, radius: float) -> MinimizerCertificate:
    """Certified minimizer of the population objective over the ball."""
    return _certify(law.a0, law.b0, law.c0, partial(population_risk, law), radius)


def tracking_bound(
    variant: Variant | str,
    t: int,
    params: BoundParams,
    eta: float,
    beta: float,
) -> float:
    """Closed-form ceiling on the expected squared tracking gap at step t.

    SCGD:  (c/e)^c (t beta)^-c d_y + lip_f^2 lip_g^3 eta^2 / beta^2 + 2 var_g beta
    SCSC:  (c/e)^c (t beta)^-c d_y + lip_f^2 lip_g^3 eta^2 / beta   + 2 var_g beta

    Here c = 2; any c > 0 is valid, as (1 - beta)^t <= e^(-t beta) <= (c / (e t beta))^c.
    Raises ``ValueError`` when the value is not finite or the variant is unknown.
    """
    if t < 1:
        raise ValueError("bound undefined at t=0")
    if not (eta >= 0 and 0.0 < beta <= 1.0):
        raise ValueError("need eta >= 0 and beta in (0, 1]")
    c = _DECAY_EXPONENT
    try:
        decay = (c / np.e) ** c * (t * beta) ** (-c) * params.d_y
        drift = params.lip_f**2 * params.lip_g**3 * eta**2
        drift /= beta**2 if Variant(variant) is Variant.SCGD else beta
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
