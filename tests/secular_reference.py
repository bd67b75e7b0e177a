"""Plain references for the trust-region secular equation.

``scolab.trust_region._secular_point`` returns the point
``x_i = w_i / (mu + shift_i)`` at the exact float threshold of the norm
test ``||x(mu)|| > radius``: the least float ``t`` in ``(0, H]``,
``H = ||w|| / radius``, where the test is false, or ``H`` where it is
true on the whole interval.  It finds ``t`` in a few Newton steps and a
search on the float bits.  This module defines the same point by a plain
integer bisection over the float bit patterns of ``[0, H]``
(:func:`threshold_secular_point`), and keeps the plain halving of
``(0, H]`` (:func:`halving_secular_point`), which closes on the same
threshold wherever it converges in 100 halvings.  The tests compare the
solve with both byte for byte.
"""

import numpy as np


def _point(w, shift, mu):
    denom = mu[..., None] + shift
    return np.divide(w, denom, out=np.zeros_like(w), where=denom > 0)


def threshold_secular_point(w: np.ndarray, shift: np.ndarray, radius: float) -> np.ndarray:
    """Point at the exact float threshold, batched over rows."""
    h = np.asarray(np.linalg.norm(w, axis=-1) / radius, dtype=np.float64)
    # Nonnegative floats order as their bit patterns: bisect the integers,
    # with the test true at lo (or lo = 0) and false at hi (or hi = H).
    lo, hi = np.zeros_like(h, dtype=np.int64), h.view(np.int64)
    while np.any(wide := hi - lo > 1):
        mid = lo + (hi - lo) // 2
        with np.errstate(over="ignore"):  # an inf norm is a true test
            outside = np.linalg.norm(_point(w, shift, mid.view(np.float64)), axis=-1) > radius
        lo = np.where(wide & outside, mid, lo)
        hi = np.where(wide & ~outside, mid, hi)
    return _point(w, shift, hi.view(np.float64))


def halving_secular_point(w: np.ndarray, shift: np.ndarray, radius: float) -> np.ndarray:
    """Point at the upper end of the halved bracket, batched over rows."""
    lo = np.zeros(w.shape[:-1])
    hi = np.linalg.norm(w, axis=-1) / radius
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        outside = np.linalg.norm(_point(w, shift, mid), axis=-1) > radius
        bracket = np.where(outside, mid, lo), np.where(outside, hi, mid)
        if np.array_equal(bracket[0], lo) and np.array_equal(bracket[1], hi):
            break  # a fixed point: the remaining halvings change nothing
        lo, hi = bracket
    return _point(w, shift, hi)
