"""Bisection reference for the trust-region secular equation.

``scolab.trust_region._secular_point`` finds the point
``x_i = w_i / (mu + shift_i)`` with ``||x|| = radius`` by locating the
exact float threshold of the norm test below, in a few Newton steps.  This module keeps the
plain bisection that defines the result: halve the bracket ``(0, ||w|| /
radius]`` on that test until it stops moving (at most 100 times) and
return the point at its upper end.  The tests compare the two byte for
byte.
"""

import numpy as np


def halving_secular_point(w: np.ndarray, shift: np.ndarray, radius: float) -> np.ndarray:
    """Point at the upper end of the halved bracket, batched over rows."""

    def point(mu):
        denom = mu[..., None] + shift
        return np.divide(w, denom, out=np.zeros_like(w), where=denom > 0)

    lo = np.zeros(w.shape[:-1])
    hi = np.linalg.norm(w, axis=-1) / radius
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        outside = np.linalg.norm(point(mid), axis=-1) > radius
        bracket = np.where(outside, mid, lo), np.where(outside, hi, mid)
        if np.array_equal(bracket[0], lo) and np.array_equal(bracket[1], hi):
            break  # a fixed point: the remaining halvings change nothing
        lo, hi = bracket
    return point(hi)
