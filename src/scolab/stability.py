"""Empirical measurement of parameter stability under sample replacement.

A neighboring dataset differs from the original in exactly one inner or
one outer sample; :func:`make_neighbor` builds it by copying one row of
a donor dataset into place.  Stability is estimated by running the
optimizer on both datasets with the *same* realized index sequence (a
coupled pair) and measuring the distance between the two outputs.
Coupling fixes the algorithm's internal randomness, which is the
quantity the replacement experiment is meant to isolate; an uncoupled
mode that redraws the second index sequence is available for comparison
and measures a larger, noise-dominated displacement.

The replaced position is drawn uniformly per replicate, so the reported
estimates are average-case readings of the worst-case quantity; scaling
behavior in n, m, and T is preserved.  Replicates run serially in
replicate order; the ``threads`` arguments are accepted and ignored.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import Rng
from .optimizer import OptimizerConfig, _draw_indices, _run_with_indices, run
from .problems import (
    Dataset,
    PopulationLaw,
    compute_constants,
    empirical_risk,
    population_risk,
    sample_dataset,
)

__all__ = [
    "CoupledResult",
    "StabilityEstimate",
    "GapReport",
    "make_neighbor",
    "coupled_run",
    "estimate_stability",
    "check_generalization_inequality",
]


def make_neighbor(dataset: Dataset, kind: str, index: int, donor: Dataset) -> Dataset:
    """Copy of the dataset with one sample replaced by row 0 of ``donor``.

    ``kind`` "nu" replaces outer sample ``index``, "omega" inner sample
    ``index``; the donor's other rows and other side are ignored.
    """
    if kind not in ("nu", "omega"):
        raise ValueError(f"unknown neighbor kind {kind!r}")
    if donor.inner_a.shape[1:] != dataset.inner_a.shape[1:]:
        raise ValueError("donor dimensions do not match the dataset")
    fields = ("outer_c",) if kind == "nu" else ("inner_a", "inner_b")
    size = dataset.n if kind == "nu" else dataset.m
    if not 0 <= index < size:
        raise IndexError(f"{kind} index {index} out of range [0, {size})")
    rows = {}
    for name in fields:
        rows[name] = getattr(dataset, name).copy()
        rows[name][index] = getattr(donor, name)[0]
    return dataclasses.replace(dataset, **rows)


@dataclass(frozen=True)
class CoupledResult:
    output: np.ndarray
    neighbor_output: np.ndarray
    distance: float


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
    indices = _draw_indices(dataset, cfg, rng.split("indices"))
    out = _run_with_indices(dataset, cfg, *indices).final_output
    if coupled:
        out_nb = _run_with_indices(neighbor, cfg, *indices).final_output
    else:
        out_nb = run(neighbor, cfg, rng.split("uncoupled-indices")).final_output
    return CoupledResult(out, out_nb, float(np.linalg.norm(out - out_nb)))


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
    distance = {"nu": np.nan, "omega": np.nan}
    for kind in kinds:
        donor = sample_dataset(law, 1, 1, rep_rng.split(f"swap-{kind}"))
        size = n if kind == "nu" else m
        index = int(rep_rng.split(f"index-{kind}").generator().integers(0, size))
        neighbor = make_neighbor(data, kind, index, donor)
        run_rng = rep_rng.split(f"run-{kind}")
        distance[kind] = coupled_run(data, neighbor, cfg, run_rng, coupled).distance
    return distance["nu"], distance["omega"]


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
