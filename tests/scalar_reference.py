"""Per-sample scalar reference for one SCGD/SCSC step.

The library implements the step once, inside ``scolab.optimizer``'s run
loop.  This module spells the same step out sample by sample, one
function per formula, so that the tests can replay a run's recorded
indices through it and compare.
"""

import numpy as np

from scolab.core import as_matrix, as_vector, project_ball
from scolab.optimizer import Variant


def mat_vec(j, v) -> np.ndarray:
    """Matrix-vector product ``j @ v`` with explicit dimension checking."""
    jm, vv = as_matrix(j), as_vector(v)
    if jm.shape[1] != vv.shape[0]:
        raise ValueError(f"dimension mismatch: matrix is {jm.shape}, vector has length {vv.shape[0]}")
    return jm @ vv


def inner_eval(sample, x) -> np.ndarray:
    """Value ``a @ x + b`` of an inner map."""
    return sample.a @ as_vector(x, dim=sample.a.shape[1]) + sample.b


def inner_jac(sample, x) -> np.ndarray:
    """Jacobian of an inner map as the (p, d) matrix ``a.T``, so that
    ``mat_vec(inner_jac(s, x), outer_grad(o, y))`` is the chain-rule gradient."""
    as_vector(x, dim=sample.a.shape[1])
    return np.ascontiguousarray(sample.a.T)


def outer_eval(sample, y) -> float:
    """Quadratic loss ``0.5 * ||y - c||^2``."""
    diff = as_vector(y, dim=sample.c.shape[0]) - sample.c
    return 0.5 * float(diff @ diff)


def outer_grad(sample, y) -> np.ndarray:
    """Gradient ``y - c`` of the quadratic loss."""
    return as_vector(y, dim=sample.c.shape[0]) - sample.c


def tracking_step(variant, y, g_cur, g_prev, beta: float) -> np.ndarray:
    """One inner-tracker update; ``g_prev`` is ignored for SCGD."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    yv = as_vector(y)
    gc = as_vector(g_cur, dim=yv.shape[0])
    if variant is Variant.SCGD:
        return (1.0 - beta) * yv + beta * gc
    gp = as_vector(g_prev, dim=yv.shape[0])
    return (1.0 - beta) * (yv + gc - gp) + beta * gc


def param_step(x, jac, outer_g, eta: float, radius: float) -> np.ndarray:
    """Projected gradient step through the inner Jacobian."""
    return project_ball(as_vector(x) - eta * mat_vec(jac, outer_g), radius)
