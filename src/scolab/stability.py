"""Empirical measurement of parameter stability under sample replacement.

A neighboring dataset differs from the original in exactly one inner or
one outer sample.  Stability is estimated by running the optimizer on
both datasets with the *same* realized index sequence (a coupled pair)
and measuring the distance between the two outputs.  Coupling fixes the
algorithm's internal randomness, which is the quantity the replacement
experiment is meant to isolate; an uncoupled mode that redraws the
second index sequence is available for comparison and measures a
larger, noise-dominated displacement.

The replaced position is drawn uniformly per replicate, so the reported
estimates are average-case readings of the worst-case quantity; scaling
behavior in n, m, and T is preserved.  Replicates run serially in
replicate order; the ``threads`` arguments are accepted and ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Rng
from .optimizer import OptimizerConfig, Trajectory, _run_with_indices, run
from .problems import (
    Dataset,
    InnerSample,
    OuterSample,
    PopulationLaw,
    compute_constants,
    empirical_risk,
    population_risk,
    sample_dataset,
)

__all__ = [
    "NeighborSpec",
    "CoupledResult",
    "StabilityEstimate",
    "GapReport",
    "make_neighbor",
    "coupled_run",
    "estimate_stability",
    "check_generalization_inequality",
]


@dataclass(frozen=True)
class NeighborSpec:
    """Replacement instruction: which side, which position, which sample."""

    kind: str  # "nu" replaces an outer sample, "omega" an inner sample
    index: int
    replacement: OuterSample | InnerSample

    def __post_init__(self) -> None:
        if self.kind not in ("nu", "omega"):
            raise ValueError(f"unknown neighbor kind {self.kind!r}")
        if self.kind == "nu" and not isinstance(self.replacement, OuterSample):
            raise ValueError("nu replacement must be an outer sample")
        if self.kind == "omega" and not isinstance(self.replacement, InnerSample):
            raise ValueError("omega replacement must be an inner sample")


def make_neighbor(dataset: Dataset, spec: NeighborSpec) -> Dataset:
    """Copy of the dataset with exactly one sample replaced."""
    if spec.kind == "nu":
        if not 0 <= spec.index < dataset.n:
            raise IndexError(f"outer index {spec.index} out of range [0, {dataset.n})")
        outer = dataset.outer_c.copy()
        outer[spec.index] = spec.replacement.c
        return Dataset(inner_a=dataset.inner_a, inner_b=dataset.inner_b, outer_c=outer)
    if not 0 <= spec.index < dataset.m:
        raise IndexError(f"inner index {spec.index} out of range [0, {dataset.m})")
    inner_a = dataset.inner_a.copy()
    inner_b = dataset.inner_b.copy()
    inner_a[spec.index] = spec.replacement.a
    inner_b[spec.index] = spec.replacement.b
    return Dataset(inner_a=inner_a, inner_b=inner_b, outer_c=dataset.outer_c)


@dataclass(frozen=True)
class CoupledResult:
    output: np.ndarray
    neighbor_output: np.ndarray
    distance: float
    trajectory: Trajectory
    neighbor_trajectory: Trajectory


def coupled_run(
    dataset: Dataset,
    neighbor: Dataset,
    cfg: OptimizerConfig,
    rng: Rng,
    coupled: bool = True,
) -> CoupledResult:
    """Run the optimizer on both datasets and measure output displacement.

    With ``coupled=True`` (the default) the two runs share one realized
    index sequence drawn from ``rng``; identical datasets then yield a
    distance of exactly zero.  With ``coupled=False`` the neighbor run
    draws its own sequence from a derived stream.
    """
    if (dataset.n, dataset.m) != (neighbor.n, neighbor.m):
        raise ValueError("non-neighboring datasets")
    gen = rng.split("indices").generator()
    j_idx = gen.integers(0, dataset.m, size=cfg.steps, dtype=np.int64)
    i_idx = gen.integers(0, dataset.n, size=cfg.steps, dtype=np.int64)
    tau = None
    if cfg.output_mode == "uniform_random":
        tau = int(gen.integers(1, cfg.steps + 1))
    traj = _run_with_indices(dataset, cfg, j_idx, i_idx, tau)
    if coupled:
        traj_nb = _run_with_indices(neighbor, cfg, j_idx, i_idx, tau)
    else:
        traj_nb = run(neighbor, cfg, rng.split("uncoupled-indices"))
    dist = float(np.linalg.norm(traj.final_output - traj_nb.final_output))
    return CoupledResult(
        output=traj.final_output,
        neighbor_output=traj_nb.final_output,
        distance=dist,
        trajectory=traj,
        neighbor_trajectory=traj_nb,
    )


@dataclass(frozen=True)
class StabilityEstimate:
    """Monte Carlo stability readings with their standard errors.

    Estimates are averages over replicates of the coupled output
    displacement after replacing one uniformly chosen sample; a field is
    NaN when that replacement side was not requested.
    """

    eps_nu: float
    eps_nu_se: float
    eps_omega: float
    eps_omega_se: float
    replicates: int
    coupled: bool


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.shape[0] < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / np.sqrt(values.shape[0]))


def _stability_replicate(
    law: PopulationLaw,
    n: int,
    m: int,
    cfg: OptimizerConfig,
    rep_rng: Rng,
    kinds: tuple[str, ...],
    coupled: bool,
) -> tuple[float, float]:
    data = sample_dataset(law, n, m, rep_rng.split("data"))
    d_nu = np.nan
    d_omega = np.nan
    if "nu" in kinds:
        swap = sample_dataset(law, 1, 1, rep_rng.split("swap-nu"))
        index = int(rep_rng.split("index-nu").generator().integers(0, n))
        neighbor = make_neighbor(
            data, NeighborSpec("nu", index, OuterSample(swap.outer_c[0]))
        )
        d_nu = coupled_run(data, neighbor, cfg, rep_rng.split("run-nu"), coupled).distance
    if "omega" in kinds:
        swap = sample_dataset(law, 1, 1, rep_rng.split("swap-omega"))
        index = int(rep_rng.split("index-omega").generator().integers(0, m))
        neighbor = make_neighbor(
            data,
            NeighborSpec("omega", index, InnerSample(swap.inner_a[0], swap.inner_b[0])),
        )
        d_omega = coupled_run(
            data, neighbor, cfg, rep_rng.split("run-omega"), coupled
        ).distance
    return d_nu, d_omega


def estimate_stability(
    law: PopulationLaw,
    n: int,
    m: int,
    cfg: OptimizerConfig,
    replicates: int,
    rng: Rng,
    kinds: tuple[str, ...] = ("nu", "omega"),
    coupled: bool = True,
    threads: int = 1,
) -> StabilityEstimate:
    """Monte Carlo estimate of the two replacement sensitivities.

    Each replicate draws a fresh dataset, a fresh replacement sample and
    a uniform position on its own child stream, then runs one coupled
    pair per requested side.  Replicates run one after another and are
    aggregated in replicate order; ``threads`` is accepted for
    compatibility and has no effect.
    """
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    for kind in kinds:
        if kind not in ("nu", "omega"):
            raise ValueError(f"unknown neighbor kind {kind!r}")

    results = [
        _stability_replicate(law, n, m, cfg, rng.split(f"rep-{rep}"), tuple(kinds), coupled)
        for rep in range(replicates)
    ]
    d_nu = np.asarray([r[0] for r in results])
    d_omega = np.asarray([r[1] for r in results])
    if "nu" in kinds:
        eps_nu, eps_nu_se = _mean_se(d_nu)
    else:
        eps_nu, eps_nu_se = np.nan, np.nan
    if "omega" in kinds:
        eps_omega, eps_omega_se = _mean_se(d_omega)
    else:
        eps_omega, eps_omega_se = np.nan, np.nan
    return StabilityEstimate(
        eps_nu=eps_nu,
        eps_nu_se=eps_nu_se,
        eps_omega=eps_omega,
        eps_omega_se=eps_omega_se,
        replicates=replicates,
        coupled=coupled,
    )


@dataclass(frozen=True)
class GapReport:
    """Both sides of the stability-to-generalization inequality.

    ``gap_mean`` estimates the expected population-minus-empirical risk
    of the algorithm output; ``rhs`` combines the measured replacement
    sensitivities with the inner-variance term
    lip_f * sqrt(mean inner variance / m).  ``holds`` records the
    one-sided comparison gap <= rhs + 3 * combined standard error.
    """

    gap_mean: float
    gap_se: float
    eps_nu: float
    eps_nu_se: float
    eps_omega: float
    eps_omega_se: float
    lip_f: float
    lip_g: float
    variance_term: float
    rhs: float
    combined_se: float
    holds: bool


def check_generalization_inequality(
    law: PopulationLaw,
    n: int,
    m: int,
    cfg: OptimizerConfig,
    replicates: int,
    rng: Rng,
    threads: int = 1,
) -> GapReport:
    """One-sided sanity check of the stability-based generalization ceiling.

    The left side Monte-Carlo averages F(A(S)) - F_S(A(S)) over fresh
    datasets and fresh runs; the right side is
    lip_f lip_g eps_nu + 4 lip_f lip_g eps_omega + lip_f sqrt(var / m)
    with the sensitivities measured by :func:`estimate_stability`, the
    inner variance evaluated in closed form at each output, and the
    Lipschitz constants taken as the largest per-dataset values seen.
    Measured sensitivities are average-case readings, so the check is a
    sanity bound, not a certificate.
    """
    if replicates < 2:
        raise ValueError("replicates must be >= 2")

    results = []
    for rep in range(replicates):
        rep_rng = rng.split(f"gap-rep-{rep}")
        data = sample_dataset(law, n, m, rep_rng.split("data"))
        traj = run(data, cfg, rep_rng.split("opt"))
        out = traj.final_output
        gap = population_risk(law, out) - empirical_risk(data, out)
        variance = law.inner_variance_at(out)
        consts = compute_constants(data, cfg.domain_radius)
        results.append((gap, variance, consts.lip_f, consts.lip_g))
    gaps = np.asarray([r[0] for r in results])
    variances = np.asarray([r[1] for r in results])
    lip_f = max(r[2] for r in results)
    lip_g = max(r[3] for r in results)

    gap_mean, gap_se = _mean_se(gaps)
    var_mean, var_se = _mean_se(variances)

    est = estimate_stability(
        law, n, m, cfg, replicates, rng.split("stability"), threads=threads
    )
    variance_term = lip_f * np.sqrt(var_mean / m)
    rhs = lip_f * lip_g * est.eps_nu + 4.0 * lip_f * lip_g * est.eps_omega + variance_term
    var_term_se = 0.0
    if var_mean > 0:
        var_term_se = lip_f * var_se / (2.0 * np.sqrt(var_mean * m))
    combined_se = float(
        np.sqrt(
            gap_se**2
            + (lip_f * lip_g * est.eps_nu_se) ** 2
            + (4.0 * lip_f * lip_g * est.eps_omega_se) ** 2
            + var_term_se**2
        )
    )
    # Tiny absolute slack keeps the zero-noise degenerate case, where both
    # sides are exactly zero up to rounding, from flapping.
    holds = bool(gap_mean <= rhs + 3.0 * combined_se + 1e-12)
    return GapReport(
        gap_mean=gap_mean,
        gap_se=gap_se,
        eps_nu=est.eps_nu,
        eps_nu_se=est.eps_nu_se,
        eps_omega=est.eps_omega,
        eps_omega_se=est.eps_omega_se,
        lip_f=lip_f,
        lip_g=lip_g,
        variance_term=float(variance_term),
        rhs=float(rhs),
        combined_se=combined_se,
        holds=holds,
    )
