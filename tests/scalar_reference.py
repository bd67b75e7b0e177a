"""Per-sample scalar reference for one SCGD/SCSC step.

The library implements the step once, inside ``scolab.optimizer``'s run
loop.  This module spells the same step out sample by sample, one
function per formula, so that the tests can replay a run's indices
through it and compare.  A sample is passed as its rows of the dataset:
``(a, b)`` for an inner map, ``c`` for an outer loss.
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


def inner_eval(a, b, x) -> np.ndarray:
    """Value ``a @ x + b`` of an inner map."""
    am = as_matrix(a)
    return am @ as_vector(x, dim=am.shape[1]) + as_vector(b, dim=am.shape[0])


def inner_jac(a, x) -> np.ndarray:
    """Jacobian of an inner map as the (p, d) matrix ``a.T``, so that
    ``mat_vec(inner_jac(a, x), outer_grad(c, y))`` is the chain-rule gradient."""
    am = as_matrix(a)
    as_vector(x, dim=am.shape[1])
    return np.ascontiguousarray(am.T)


def outer_eval(c, y) -> float:
    """Quadratic loss ``0.5 * ||y - c||^2``."""
    cv = as_vector(c)
    diff = as_vector(y, dim=cv.shape[0]) - cv
    return 0.5 * float(diff @ diff)


def outer_grad(c, y) -> np.ndarray:
    """Gradient ``y - c`` of the quadratic loss."""
    cv = as_vector(c)
    return as_vector(y, dim=cv.shape[0]) - cv


def drawn_indices(dataset, steps: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The (inner, outer) index sequences a run draws from ``rng``,
    re-derived from the documented order: the inner block, then the
    outer block."""
    gen = rng.generator()
    return (gen.integers(0, dataset.m, size=steps, dtype=np.int64),
            gen.integers(0, dataset.n, size=steps, dtype=np.int64))


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
