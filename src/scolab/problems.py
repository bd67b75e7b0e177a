"""Synthetic compositional problems with exact oracles.

The inner family maps parameters ``x`` in R^p to R^d through an affine
map ``g(x) = A x + b``, one ``(A, b)`` per inner sample; the outer family
scores a d-vector ``y`` through the quadratic loss
``f(y) = 0.5 * ||y - c||^2``, one target ``c`` per outer sample.  A
:class:`Dataset` stacks the samples of each side, one row per sample.
Averaging the inner family over a dataset and composing gives the nested
empirical objective

    F_S(x) = (1/n) sum_i f_i( (1/m) sum_j g_j(x) ),

and averaging over the sampling law gives the population objective.  For
the bounded-uniform noise model used here every population moment is
available in closed form, and every supremum over the domain ball
behind a bound constant is a convex quadratic solved exactly as a
trust-region subproblem, which is what makes the rest of the lab's bound
checks exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Rng, as_matrix, as_vector, project_ball

__all__ = [
    "Dataset",
    "PopulationLaw",
    "BoundParams",
    "sample_dataset",
    "empirical_inner",
    "empirical_risk",
    "empirical_risk_grad",
    "population_risk",
    "compute_constants",
    "benchmark_law",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Stacked training data: m inner samples and n outer samples.

    ``inner_a`` has shape (m, d, p), ``inner_b`` shape (m, d) and
    ``outer_c`` shape (n, d); sample j is row j of its side, and this is
    the only form training data takes.  Instances are immutable; the
    per-dataset means and spreads that the optimizers and oracles need
    repeatedly are cached on first use.
    """

    inner_a: np.ndarray
    inner_b: np.ndarray
    outer_c: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.inner_a, dtype=float)
        b = np.asarray(self.inner_b, dtype=float)
        c = np.asarray(self.outer_c, dtype=float)
        if a.ndim != 3 or b.ndim != 2 or c.ndim != 2:
            raise ValueError("inner_a must be (m, d, p); inner_b (m, d); outer_c (n, d)")
        if a.shape[0] == 0 or c.shape[0] == 0:
            raise ValueError("empty dataset")
        if b.shape != a.shape[:2]:
            raise ValueError("inner_b shape does not match inner_a")
        if c.shape[1] != a.shape[1]:
            raise ValueError("outer_c dimension does not match the inner range")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("non-finite dataset entries")
        object.__setattr__(self, "inner_a", a)
        object.__setattr__(self, "inner_b", b)
        object.__setattr__(self, "outer_c", c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dataset)
            and np.array_equal(self.inner_a, other.inner_a)
            and np.array_equal(self.inner_b, other.inner_b)
            and np.array_equal(self.outer_c, other.outer_c)
        )

    @property
    def n(self) -> int:
        return self.outer_c.shape[0]

    @property
    def m(self) -> int:
        return self.inner_a.shape[0]

    @property
    def d(self) -> int:
        return self.inner_a.shape[1]

    @property
    def p(self) -> int:
        return self.inner_a.shape[2]

    @cached_property
    def a_bar(self) -> np.ndarray:
        return self.inner_a.mean(axis=0)

    @cached_property
    def b_bar(self) -> np.ndarray:
        return self.inner_b.mean(axis=0)

    @cached_property
    def c_bar(self) -> np.ndarray:
        return self.outer_c.mean(axis=0)

    @cached_property
    def outer_spread(self) -> float:
        """Mean squared distance of the outer targets from their mean."""
        diff = self.outer_c - self.c_bar
        return float(np.mean(np.sum(diff * diff, axis=1)))


@dataclass(frozen=True)
class PopulationLaw:
    """Sampling law for the affine-quadratic family.

    Inner samples are ``(a0 + U, b0 + u)`` and outer samples ``c0 + w``
    where every noise entry is independent uniform on ``[-tau, tau]``
    with the matching half-width.  Bounded noise keeps all the Lipschitz
    and variance constants finite on any bounded domain.
    """

    a0: np.ndarray
    b0: np.ndarray
    c0: np.ndarray
    tau_a: float = 0.0
    tau_b: float = 0.0
    tau_c: float = 0.0

    def __post_init__(self) -> None:
        a0 = as_matrix(self.a0)
        b0 = as_vector(self.b0, dim=a0.shape[0])
        c0 = as_vector(self.c0, dim=a0.shape[0])
        if not (np.all(np.isfinite(a0)) and np.all(np.isfinite(b0)) and np.all(np.isfinite(c0))):
            raise ValueError("non-finite law parameters")
        for name in ("tau_a", "tau_b", "tau_c"):
            tau = getattr(self, name)
            if not (np.isfinite(tau) and tau >= 0):
                raise ValueError(f"{name} must be a finite nonnegative real")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "c0", c0)

    @property
    def d(self) -> int:
        return self.a0.shape[0]

    @property
    def p(self) -> int:
        return self.a0.shape[1]

    def inner_mean(self, x) -> np.ndarray:
        """Population mean of the inner map at ``x``."""
        return self.a0 @ as_vector(x, dim=self.p) + self.b0

    def inner_variance_at(self, x) -> float:
        """Population variance E ||g(x) - E g(x)||^2 at a fixed ``x``.

        For entrywise uniform noise each entry has variance tau^2 / 3, so
        the total is d * (tau_a^2 ||x||^2 + tau_b^2) / 3.
        """
        v = as_vector(x, dim=self.p)
        return self.d * (self.tau_a**2 * float(v @ v) + self.tau_b**2) / 3.0

    @property
    def outer_variance(self) -> float:
        """Population variance E ||c - c0||^2 of the outer targets."""
        return self.d * self.tau_c**2 / 3.0


def sample_dataset(law: PopulationLaw, n: int, m: int, rng: Rng) -> Dataset:
    """Draw n outer and m inner samples i.i.d. from the law.

    Deterministic given ``rng``: noise blocks are drawn in the fixed
    order inner matrices, inner offsets, outer targets.
    """
    if n < 1 or m < 1:
        raise ValueError("empty dataset")
    gen = rng.generator()
    d, p = law.d, law.p
    inner_a = law.a0 + gen.uniform(-law.tau_a, law.tau_a, size=(m, d, p))
    inner_b = law.b0 + gen.uniform(-law.tau_b, law.tau_b, size=(m, d))
    outer_c = law.c0 + gen.uniform(-law.tau_c, law.tau_c, size=(n, d))
    return Dataset(inner_a=inner_a, inner_b=inner_b, outer_c=outer_c)


def empirical_inner(dataset: Dataset, x) -> np.ndarray:
    """Mean of the inner maps over the dataset: ``a_bar @ x + b_bar``."""
    return dataset.a_bar @ as_vector(x, dim=dataset.p) + dataset.b_bar


def empirical_risk(dataset: Dataset, x) -> float:
    """Nested empirical objective at ``x``.

    Expands to 0.5 * ||g_bar(x) - c_bar||^2 plus half the spread of the
    outer targets around their mean (an x-free constant).
    """
    diff = empirical_inner(dataset, x) - dataset.c_bar
    return 0.5 * float(diff @ diff) + 0.5 * dataset.outer_spread


def empirical_risk_grad(dataset: Dataset, x) -> np.ndarray:
    """Exact chain-rule gradient of :func:`empirical_risk`."""
    diff = empirical_inner(dataset, x) - dataset.c_bar
    return dataset.a_bar.T @ diff


def population_risk(law: PopulationLaw, x) -> float:
    """Population objective at ``x`` in closed form.

    Equals 0.5 * ||a0 x + b0 - c0||^2 plus the irreducible constant
    0.5 * E||c - c0||^2 contributed by outer-target noise.
    """
    diff = law.inner_mean(x) - law.c0
    return 0.5 * float(diff @ diff) + 0.5 * law.outer_variance


@dataclass(frozen=True)
class BoundParams:
    """Problem constants consumed by the reference bound formulas.

    lip_f        Lipschitz constant of the outer losses on the reachable set
    lip_g        Lipschitz constant of the inner maps (max operator norm)
    grad_lip_f   Lipschitz constant of the outer gradients (1 for quadratics)
    smooth_l     smoothness of the composed empirical objective
    sigma        strong-convexity modulus of the composed empirical objective
    var_g        sup over the domain of the inner-value empirical variance
    var_grad_g   empirical variance of the inner Jacobians (x-free here)
    d_x          bound on the squared iterate-to-optimum distance
    d_y          bound on the squared initial tracking gap
    free_c       free exponent in the tracking decay term
    """

    lip_f: float
    lip_g: float
    grad_lip_f: float
    smooth_l: float
    sigma: float
    var_g: float
    var_grad_g: float
    d_x: float
    d_y: float
    free_c: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "lip_f",
            "lip_g",
            "grad_lip_f",
            "smooth_l",
            "sigma",
            "var_g",
            "var_grad_g",
            "d_x",
            "d_y",
        ):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite nonnegative real")
        if not (np.isfinite(self.free_c) and self.free_c > 0):
            raise ValueError("free_c must be positive")
        if self.sigma > self.smooth_l + 1e-12 * max(1.0, self.smooth_l):
            raise ValueError("sigma cannot exceed the smoothness constant")


def _secular_point(w: np.ndarray, shift: np.ndarray, radius: float) -> np.ndarray:
    """Point ``x_i = w_i / (mu + shift_i)`` with ``||x|| = radius``, batched.

    The trust-region secular equation in an eigenbasis (Moré & Sorensen
    1983; Conn, Gould & Toint 2000, ch. 7).  ``||x||`` falls in ``mu`` and
    is at most ``radius`` at ``mu = ||w|| / radius``, so the root is bisected
    on ``(0, ||w|| / radius]``; the point at the bracket's upper end, which
    never leaves the ball, is returned.  Nonpositive denominators give zeros.
    """

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


def _max_quadratic_on_ball(mat: np.ndarray, vec: np.ndarray, const, radius: float) -> np.ndarray:
    """Exact sup over ||x|| <= radius of ``x' mat x + 2 vec' x + const``, batched.

    ``mat`` (..., p, p) is PSD, ``vec`` (..., p) and ``const`` (...).  A
    convex quadratic peaks on the sphere, where the global maximizer solves
    ``(lam I - mat) x = vec`` with ``lam >= lambda_max``: :func:`_secular_point`
    with ``mu = lam - lambda_max`` and shifts ``lambda_max - lambda_i``.  The
    leftover radius goes along the top eigenvector; it is nonzero only in
    the hard case (no weight of ``vec`` on the top eigenspace and the rest
    of ``x`` inside the ball).  The point is rescaled onto the sphere before
    it is evaluated, so the value is attained by a feasible point.
    """
    eigvals, eigvecs = np.linalg.eigh(mat)
    w = np.einsum("...pq,...p->...q", eigvecs, vec)
    x = _secular_point(w, eigvals[..., -1:] - eigvals, radius)
    left = np.sqrt(np.maximum(radius**2 - np.sum(x * x, axis=-1), 0.0))
    x[..., -1] += np.copysign(left, w[..., -1])
    x *= (radius / np.linalg.norm(x, axis=-1))[..., None]
    vals = np.sum(eigvals * x * x, axis=-1) + 2.0 * np.sum(w * x, axis=-1) + const
    return np.maximum(vals, const)


def _min_quadratic_on_ball(gram: np.ndarray, rhs: np.ndarray, radius: float):
    """Exact argmin over ||x|| <= radius of ``0.5 x' gram x - rhs' x``, and its tag.

    ``gram`` is PSD and ``rhs`` lies in its range, so there is no hard case.
    Eigen-directions below the rank cutoff get zero weight, so an interior
    solution is the minimum-norm one.  Otherwise the minimizer solves
    ``(gram + mu I) x = rhs`` on the sphere: :func:`_secular_point` with
    shifts ``lambda_i``, projected to be feasible in exact float comparison.
    """
    eigvals, eigvecs = np.linalg.eigh(gram)
    kept = eigvals > max(float(eigvals[-1]), 1.0) * 1e-12
    w = np.where(kept, eigvecs.T @ rhs, 0.0)
    x = np.divide(w, eigvals, out=np.zeros_like(w), where=kept)
    if np.linalg.norm(x) <= radius:
        tag = "closed_form" if kept.all() else "closed_form_min_norm"
    else:
        x, tag = _secular_point(w, eigvals, radius), "trust_region"
    return project_ball(eigvecs @ x, radius), tag


def compute_constants(dataset: Dataset, domain_radius: float) -> BoundParams:
    """Compute every bound constant for the affine-quadratic family.

    Closed forms are used wherever they exist (operator norms, Frobenius
    deviations, extreme eigenvalues of the mean Gram matrix).  The genuine
    suprema over the ball, the inner-value variance ``var_g``, the tracker
    deviation behind ``d_y`` and the reachable-set radius behind ``lip_f``,
    are maxima of convex quadratics, solved exactly by one batched
    trust-region solve.
    """
    if not (np.isfinite(domain_radius) and domain_radius > 0):
        raise ValueError("invalid domain")
    a = dataset.inner_a
    a_bar = dataset.a_bar
    b_bar = dataset.b_bar
    m, d, p = a.shape
    n = dataset.n

    lip_g = float(np.max(np.linalg.norm(a, 2, axis=(1, 2))))
    diffs_a = a - a_bar
    diffs_b = dataset.inner_b - b_bar
    var_grad_g = float(np.mean(np.sum(diffs_a * diffs_a, axis=(1, 2))))

    gram = a_bar.T @ a_bar
    eigs = np.linalg.eigvalsh(gram)
    sigma = max(float(eigs[0]), 0.0)
    smooth_l = max(float(eigs[-1]), 0.0)

    # var_g: (1/m) sum_j ||(a_j - a_bar) x + (b_j - b_bar)||^2 is one convex
    # quadratic in x (its moment form).  The other suprema are of
    # ||B x + u||^2 for the inner mean map, each of the m inner deviations
    # and the mean map shifted by each of the n outer targets.
    mom_mat = np.einsum("jdp,jdq->pq", diffs_a, diffs_a) / m
    mom_vec = np.einsum("jdp,jd->p", diffs_a, diffs_b) / m
    mom_const = float(np.mean(np.sum(diffs_b * diffs_b, axis=1)))
    aff_b = np.concatenate([a_bar[None], diffs_a, np.broadcast_to(a_bar, (n, d, p))])
    aff_u = np.concatenate([b_bar[None], diffs_b, b_bar - dataset.outer_c])
    sups = _max_quadratic_on_ball(
        np.concatenate([mom_mat[None], np.einsum("kdp,kdq->kpq", aff_b, aff_b)]),
        np.concatenate([mom_vec[None], np.einsum("kdp,kd->kp", aff_b, aff_u)]),
        np.concatenate([[mom_const], np.sum(aff_u * aff_u, axis=1)]),
        domain_radius,
    )
    var_g = float(sups[0])

    # A-priori tracker deviation: with y0 = 0 the first tracker value is a
    # convex combination of 0 and one inner value, so the gap to the inner
    # mean never exceeds max(sup ||g_j - g_bar||, sup ||g_bar||).
    d_y = float(np.max(sups[1 : m + 2]))

    # lip_f: largest gradient norm of an outer loss over the reachable set
    # {g_bar(x) : ||x|| <= R} inflated by the tracker deviation sqrt(d_y).
    lip_f = float(np.sqrt(np.max(sups[m + 2 :])) + np.sqrt(d_y))

    return BoundParams(
        lip_f=lip_f,
        lip_g=lip_g,
        grad_lip_f=1.0,
        smooth_l=smooth_l,
        sigma=sigma,
        var_g=var_g,
        var_grad_g=var_grad_g,
        d_x=(2.0 * domain_radius) ** 2,
        d_y=d_y,
    )


_BENCHMARKS = {
    # kind: (p, d, singular value range, tau_a, tau_b, tau_c, target norm of c0)
    "convex": (5, 4, (0.6, 1.2), 0.10, 0.10, 0.5, 2.0),
    "strongly_convex": (4, 5, (1.25, 1.60), 0.05, 0.05, 0.5, 2.0),
}


def benchmark_law(kind: str = "convex") -> PopulationLaw:
    """Deterministic benchmark laws used across the experiment suite.

    ``convex`` uses a wide mean matrix (d < p), so the composed objective
    has a flat direction and is convex but not strongly convex.
    ``strongly_convex`` uses a tall mean matrix with singular values
    bounded away from zero, giving a strong-convexity modulus well above
    one half for any realistically sampled dataset.
    """
    try:
        p, d, sv_range, tau_a, tau_b, tau_c, c_norm = _BENCHMARKS[kind]
    except KeyError:
        raise ValueError(f"unknown benchmark {kind!r}") from None
    gen = Rng(0xBE9C).split(f"benchmark-{kind}").generator()
    raw = gen.standard_normal(size=(d, p))
    u, _, vt = np.linalg.svd(raw, full_matrices=False)
    svals = np.linspace(sv_range[0], sv_range[1], min(d, p))
    a0 = (u * svals) @ vt
    c0 = gen.standard_normal(size=d)
    c0 *= c_norm / np.linalg.norm(c0)
    return PopulationLaw(
        a0=a0,
        b0=np.zeros(d),
        c0=c0,
        tau_a=tau_a,
        tau_b=tau_b,
        tau_c=tau_c,
    )

