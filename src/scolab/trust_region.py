"""Exact trust-region solves: extrema of quadratics over a ball.

:func:`_max_quadratic_on_ball` gives the suprema behind the bound
constants and :func:`_min_quadratic_on_ball` the minimizer certificates.
Both reduce to :func:`_secular_point` in an eigenbasis, whose boundary
point is defined by the exact float threshold of the secular equation's
norm test and found in a few Newton steps and a search on the float bits.
"""

from __future__ import annotations

import numpy as np

from .core import project_ball

__all__: list[str] = []


# Newton steps before the exact search, and that search's half-width in ulps.
_NEWTON_STEPS = 6
_WINDOW = 8


def _outside(w: np.ndarray, live: np.ndarray, mu: np.ndarray, radius: float) -> np.ndarray:
    """The norm test ``||x(mu)|| > radius`` at the K positive columns of
    ``mu`` (rows, K), for ``w`` (rows, p).  ``live`` is the shift, or 1
    where ``w`` is 0: every denominator is then positive, and each square
    equals that of ``w_i / (mu + shift_i)``, so no ``where`` has to mask."""
    x = mu[:, :, None] + live[:, None, :]
    np.divide(w[:, None, :], x, out=x)
    np.multiply(x, x, out=x)
    return np.sqrt(np.add.reduce(x, axis=-1)) > radius


def _secular_point(w: np.ndarray, shift: np.ndarray, radius: float) -> np.ndarray:
    """Point ``x_i = w_i / (mu + shift_i)`` with ``||x|| = radius``, batched.

    The trust-region secular equation in an eigenbasis (Moré & Sorensen
    1983; Conn, Gould & Toint 2000, ch. 7), with ``shift_i >= 0`` wherever
    ``w_i != 0``.  ``||x||`` falls in ``mu`` and is at most ``radius`` at
    ``H = ||w|| / radius``.  Every operation of the float test
    ``||x(mu)|| > radius`` is correctly rounded and monotone in ``mu``, so
    the test is true up to some float and false from the next on.  The
    result is the point at the least float ``t`` in ``(0, H]`` where the
    test is false, which never leaves the ball, or at ``H`` where the test
    is true on the whole interval.  Nonpositive denominators give zeros.
    Two stages find ``t``:

    - safeguarded Newton steps on ``1/||x(mu)|| - 1/radius`` climb to the
      root from the lower bound ``max_i |w_i| / radius - shift_i``;
    - one stacked test of the floats within ``_WINDOW`` ulps of the last
      iterate, and of ``H``, brackets ``t`` between neighbouring floats; a
      17-way search on the float bits finishes any row it misses.
    """
    batch, p = w.shape[:-1], w.shape[-1]
    rows = w.reshape(-1, p)
    shifts = np.broadcast_to(shift, w.shape).reshape(-1, p)
    h = np.atleast_1d(np.linalg.norm(w, axis=-1) / radius).reshape(-1)

    # Newton from below in units of radius.  Entries with no weight get
    # shift 1 and rows with H = 0 a cap of 1, so no denominator is zero.
    scaled = rows / radius
    inert = np.where(scaled != 0, shifts, 1.0)
    cap = np.where(h > 0, h, 1.0)
    mu = np.minimum(np.max(np.abs(scaled) - inert, axis=-1, initial=0.0), cap)
    for _ in range(_NEWTON_STEPS):
        denom = mu[:, None] + inert
        y2 = np.square(scaled / denom)
        norm2 = y2.sum(axis=-1)
        slope = (y2 / denom).sum(axis=-1)
        step = np.divide(norm2 * (np.sqrt(norm2) - 1.0), slope,
                         out=np.zeros_like(mu), where=slope > 0)
        mu = np.minimum(mu + np.maximum(step, 0.0), cap)

    # Bracket t by its float bits between lo (test true, or 0) and hi (test
    # false, or H where the test holds on all of (0, H]); rows with H = 0
    # start closed.  The first round tests the floats within _WINDOW ulps
    # of the Newton iterate, and H; each later round tests 16 evenly spaced
    # floats of a row's bracket, shrinking it 17-fold.
    live = np.where(rows != 0, shifts, 1.0)
    h_bits = h.view(np.int64)
    lo, hi = np.zeros_like(h_bits), h_bits.copy()
    todo = np.flatnonzero(h > 0)
    window = mu.view(np.int64)[todo, None] + np.arange(-_WINDOW, _WINDOW + 1)
    cands = np.concatenate([np.clip(window, 1, h_bits[todo, None]), h_bits[todo, None]], axis=1)
    with np.errstate(over="ignore"):  # an inf norm is a true test
        while todo.size:
            tests = _outside(rows[todo], live[todo], cands.view(np.float64), radius)
            below = np.sum(tests, axis=-1)  # true on a prefix of the sorted cands
            pick = np.arange(todo.size)
            lo[todo] = np.where(below > 0, cands[pick, below - 1], lo[todo])
            last = cands.shape[1] - 1
            hi[todo] = np.where(below <= last, cands[pick, np.minimum(below, last)], hi[todo])
            todo = np.flatnonzero(hi - lo > 1)
            step = np.maximum((hi[todo] - lo[todo]) // 17, 1)
            cands = lo[todo, None] + step[:, None] * np.arange(1, 17)
            cands = np.minimum(cands, hi[todo, None] - 1)
    denom = hi.view(np.float64).reshape(batch)[..., None] + shift  # t + shift
    return np.divide(w, denom, out=np.zeros_like(w), where=denom > 0)


def _max_quadratic_on_ball(mat: np.ndarray, vec: np.ndarray, const, radius: float,
                           which=None) -> np.ndarray:
    """Exact sup over ||x|| <= radius of ``x' mat x + 2 vec' x + const``, batched.

    ``mat`` (..., p, p) is PSD, ``vec`` (..., p) and ``const`` (...); with
    ``which``, problem k uses ``mat[which[k]]``, so a matrix that several
    problems share is decomposed once.  A convex quadratic peaks on the
    sphere, where the global maximizer solves ``(lam I - mat) x = vec`` with
    ``lam >= lambda_max``: :func:`_secular_point` with
    ``mu = lam - lambda_max`` and shifts ``lambda_max - lambda_i``.  The
    leftover radius goes along the top eigenvector; it is nonzero only in
    the hard case (no weight of ``vec`` on the top eigenspace and the rest
    of ``x`` inside the ball).  The point is rescaled onto the sphere before
    it is evaluated, so the value is attained by a feasible point.
    """
    eigvals, eigvecs = np.linalg.eigh(mat)
    if which is not None:
        eigvals, eigvecs = eigvals[which], eigvecs[which]
    w = np.einsum("...pq,...p->...q", eigvecs, vec)
    x = _secular_point(w, eigvals[..., -1:] - eigvals, radius)
    left = np.sqrt(np.maximum(radius**2 - np.sum(x * x, axis=-1), 0.0))
    x[..., -1] += np.copysign(left, w[..., -1])
    x *= (radius / np.linalg.norm(x, axis=-1))[..., None]
    vals = np.sum(eigvals * x * x, axis=-1) + 2.0 * np.sum(w * x, axis=-1) + const
    return np.maximum(vals, const)


def _rank_cutoff(eigvals: np.ndarray) -> float:
    """The rank cutoff for ``eigvals``, a PSD matrix's ascending eigenvalues:
    those at or below it are rounding noise of either sign, and count as 0."""
    return 1e-12 * max(float(eigvals[-1]), 1.0)


def _gram_modulus(a: np.ndarray) -> tuple[float, float]:
    """``(sigma, lambda_max)`` of ``a^T a``: the strong-convexity modulus, its
    least eigenvalue or 0 at or below the rank cutoff, and its largest
    eigenvalue, 0 if rounding makes it negative."""
    eigvals = np.linalg.eigvalsh(a.T @ a)
    sigma = float(eigvals[0]) if eigvals[0] > _rank_cutoff(eigvals) else 0.0
    return sigma, max(float(eigvals[-1]), 0.0)


def _min_quadratic_on_ball(gram: np.ndarray, rhs: np.ndarray, radius: float):
    """Exact argmin over ||x|| <= radius of ``0.5 x' gram x - rhs' x``, and its tag.

    ``gram`` is PSD and ``rhs`` lies in its range, so there is no hard case.
    Eigen-directions below the rank cutoff get zero weight, so an interior
    solution is the minimum-norm one.  Otherwise the minimizer solves
    ``(gram + mu I) x = rhs`` on the sphere: :func:`_secular_point` with
    shifts ``lambda_i``, projected to be feasible in exact float comparison.
    """
    eigvals, eigvecs = np.linalg.eigh(gram)
    kept = eigvals > _rank_cutoff(eigvals)
    w = np.where(kept, eigvecs.T @ rhs, 0.0)
    x = np.divide(w, eigvals, out=np.zeros_like(w), where=kept)
    if np.linalg.norm(x) <= radius:
        tag = "closed_form" if kept.all() else "closed_form_min_norm"
    else:
        x, tag = _secular_point(w, eigvals, radius), "trust_region"
    return project_ball(eigvecs @ x, radius), tag
