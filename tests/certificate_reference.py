"""Iterative reference for the ball-constrained minimizer certificates.

``scolab.oracle.erm_minimizer`` and ``population_minimizer`` certify the
argmin of the quadratic ``0.5 x'gram x - rhs'x + const`` over the ball by
one exact trust-region solve.  This module finds the same point by plain
projected gradient from the origin, independent of that solve, and the
tests compare the two.  :func:`erm_reference` and
:func:`population_reference` build ``gram`` and ``rhs`` as the oracles
do and return the point with its risk.
"""

import numpy as np

from scolab.core import project_ball
from scolab.oracle import _kkt_residual
from scolab.problems import Dataset, PopulationLaw, empirical_risk, population_risk

KKT_TOL = 1e-10


def projected_gradient(gram, rhs, radius, max_iters=1_000_000) -> np.ndarray:
    """Projected gradient from the origin with step 1/L, run to a KKT
    residual of KKT_TOL."""
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


def erm_reference(dataset: Dataset, radius: float) -> tuple[np.ndarray, float]:
    """Reference minimizer of the empirical objective and its risk."""
    a_bar = dataset.a_bar
    x = projected_gradient(a_bar.T @ a_bar, a_bar.T @ (dataset.c_bar - dataset.b_bar), radius)
    return x, empirical_risk(dataset, x)


def population_reference(law: PopulationLaw, radius: float) -> tuple[np.ndarray, float]:
    """Reference minimizer of the population objective and its risk."""
    x = projected_gradient(law.a0.T @ law.a0, law.a0.T @ (law.c0 - law.b0), radius)
    return x, population_risk(law, x)
