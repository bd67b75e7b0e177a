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
checks exact (:mod:`scolab.trust_region`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Rng, as_matrix, as_vector
from .trust_region import _gram_modulus, _max_quadratic_on_ball

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
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("non-finite dataset entries")
        object.__setattr__(self, "inner_a", a)
        object.__setattr__(self, "inner_b", b)
        object.__setattr__(self, "outer_c", c)

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
    with np.errstate(over="ignore"):  # a risk beyond the float range is inf
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
    with np.errstate(over="ignore"):  # a risk beyond the float range is inf
        diff = law.inner_mean(x) - law.c0
        return 0.5 * float(diff @ diff) + 0.5 * law.outer_variance


@dataclass(frozen=True)
class BoundParams:
    """Problem constants consumed by the reference bound formulas.

    lip_f        Lipschitz constant of the outer losses on SCGD's reachable
                 set; it need not bound SCSC's (see compute_constants)
    lip_g        Lipschitz constant of the inner maps (max operator norm)
    smooth_l     smoothness of the composed empirical objective
    sigma        strong-convexity modulus of the composed empirical objective
    var_g        sup over the domain of the inner-value empirical variance
    d_y          bound on the squared initial tracking gap; every run starts at x0 = y0 = 0
    """

    lip_f: float
    lip_g: float
    smooth_l: float
    sigma: float
    var_g: float
    d_y: float

    def __post_init__(self) -> None:
        for name in ("lip_f", "lip_g", "smooth_l", "sigma", "var_g", "d_y"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite nonnegative real")
        if self.sigma > self.smooth_l + 1e-12 * max(1.0, self.smooth_l):
            raise ValueError("sigma cannot exceed the smoothness constant")


def compute_constants(dataset: Dataset, domain_radius: float) -> BoundParams:
    """Compute every bound constant for the affine-quadratic family.

    Closed forms are used wherever they exist (operator norms, extreme
    eigenvalues of the mean Gram matrix).  The genuine suprema over the
    ball, the inner-value variance ``var_g``, the tracker deviation behind
    ``d_y`` and the reachable-set radius behind ``lip_f``, are maxima of
    convex quadratics, solved exactly by one batched trust-region solve.
    """
    if not (np.isfinite(domain_radius) and domain_radius > 0):
        raise ValueError("invalid domain")
    a = dataset.inner_a
    a_bar = dataset.a_bar
    b_bar = dataset.b_bar
    m, d, p = a.shape
    n = dataset.n

    lip_g = float(np.max(np.linalg.norm(a, 2, axis=(1, 2))))
    sigma, smooth_l = _gram_modulus(a_bar)
    diffs_a = a - a_bar
    diffs_b = dataset.inner_b - b_bar

    # var_g: (1/m) sum_j ||(a_j - a_bar) x + (b_j - b_bar)||^2 is one convex
    # quadratic in x (its moment form).  The other suprema are of
    # ||B x + u||^2 for the inner mean map, each of the m inner deviations
    # and the mean map shifted by each of the n outer targets.
    mom_mat = np.einsum("jdp,jdq->pq", diffs_a, diffs_a) / m
    mom_vec = np.einsum("jdp,jd->p", diffs_a, diffs_b) / m
    mom_const = float(np.mean(np.sum(diffs_b * diffs_b, axis=1)))
    # The n target-shifted maps share the mean map's matrix, so the batch
    # decomposes m + 2 matrices for its m + n + 2 problems.
    aff_b = np.concatenate([a_bar[None], diffs_a, np.broadcast_to(a_bar, (n, d, p))])
    aff_u = np.concatenate([b_bar[None], diffs_b, b_bar - dataset.outer_c])
    aff_gram = np.einsum("kdp,kdq->kpq", aff_b[: m + 1], aff_b[: m + 1])
    # The solve leaves the float range at both ends of the scale.  Past the
    # top, radius**2 raises and a sup reads inf or NaN.  Near the bottom, the
    # norm of a point on the sphere underflows to 0, and rescaling the point
    # onto the sphere is then the solve's only division by zero.
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="raise"):
            sups = _max_quadratic_on_ball(
                np.concatenate([mom_mat[None], aff_gram]),
                np.concatenate([mom_vec[None], np.einsum("kdp,kd->kp", aff_b, aff_u)]),
                np.concatenate([[mom_const], np.sum(aff_u * aff_u, axis=1)]),
                domain_radius,
                which=np.concatenate([np.arange(m + 2), np.ones(n, dtype=np.intp)]),
            )
    except OverflowError:
        sups = np.array([np.inf])
    except FloatingPointError:
        raise ValueError(f"domain radius {float(domain_radius)!r} is too small: "
                         "the bound constants underflow") from None
    if not np.all(np.isfinite(sups)):
        raise ValueError(f"domain radius {float(domain_radius)!r} is too large: "
                         "the bound constants overflow")
    var_g = float(sups[0])

    # A-priori tracker deviation: every run starts at y0 = 0, so the first
    # tracker value is a convex combination of 0 and one inner value, and the
    # gap to the inner mean never exceeds max(sup ||g_j - g_bar||, sup ||g_bar||).
    d_y = float(np.max(sups[1 : m + 2]))

    # lip_f: largest gradient norm of an outer loss over the reachable set
    # {g_bar(x) : ||x|| <= R} inflated by the tracker deviation sqrt(d_y).
    # The convex-combination argument above holds for SCGD only: SCSC's
    # tracker adds (1 - beta) A_j (x_t - x_{t-1}) each step and can leave
    # that hull.  A greedy choice of indices drove max ||y_t - c_i|| to
    # 10.5 lip_f at eta = 3, beta = 1e-3, R = 1, and to 0.094 lip_f at the
    # tracking study's eta = 1e-3, beta = 0.1, R = 10 (ROADMAP item 17).
    lip_f = float(np.sqrt(np.max(sups[m + 2 :])) + np.sqrt(d_y))

    return BoundParams(
        lip_f=lip_f,
        lip_g=lip_g,
        smooth_l=smooth_l,
        sigma=sigma,
        var_g=var_g,
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

