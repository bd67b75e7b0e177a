"""Empirical measurement of parameter stability under sample replacement.

A neighboring dataset differs from the original in exactly one inner or
one outer sample; :func:`make_neighbor` builds it by copying one row of
a donor dataset into place.  Stability is estimated by running the
optimizer on both datasets with the *same* realized index sequence (a
coupled pair): :func:`coupled_run` returns the two outputs, and
:func:`estimate_stability` measures the distance between them.  The
pair is always coupled: uniform stability compares A(S) and A(S') under
one realization of the algorithm's randomness (as in Hardt, Recht and
Singer, 2016), so a second, independent index draw would add the
optimizer's own variance to the replacement effect it is meant to isolate.

The replaced position is drawn uniformly per replicate, so the reported
estimates are average-case readings of the worst-case quantity; scaling
behavior in n, m, and T is preserved.  Every Monte Carlo loop in the
package is ``_replicates``: replicates run serially in replicate order,
each on its own child stream.  It refuses fewer than two replicates,
because a standard error needs two.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import Rng, _norm
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


def coupled_run(
    dataset: Dataset,
    neighbor: Dataset,
    cfg: OptimizerConfig,
    rng: Rng,
) -> tuple[np.ndarray, np.ndarray]:
    """The outputs ``(output, neighbor_output)`` of the optimizer on both datasets.

    The two runs share one realized index sequence drawn from ``rng``, so
    identical datasets give equal outputs bit for bit; the caller measures
    their distance.
    """
    if (dataset.n, dataset.inner_a.shape) != (neighbor.n, neighbor.inner_a.shape):
        raise ValueError("non-neighboring datasets")
    indices = _draw_indices(dataset, cfg, rng.split("indices"))
    return (_run_with_indices(dataset, cfg, *indices).final_output,
            _run_with_indices(neighbor, cfg, *indices).final_output)


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


def _mean_se(values: np.ndarray):
    """Mean over axis 0 of two or more rows and its standard error.

    Floats for 1-D input, lists of floats for 2-D input.  The squares in
    the standard error overflow above about 1e154, so a column whose
    peak exceeds 2^480 is reduced as its exact rescale ``v 2^-e``, ``e``
    from ``frexp`` of the peak, and scaled back, as in ``core._norm``;
    other columns keep numpy's bytes.  A column holding inf or NaN has a
    NaN standard error.
    """
    with np.errstate(invalid="ignore"):  # NaN compares, and inf - inf in a column holding inf
        peak = np.abs(values).max(axis=0)
        exp = np.where(peak > 2.0**480, np.frexp(peak)[1], 0)  # frexp(inf) is (inf, 0)
        scaled = np.ldexp(values, -exp)
        mean = np.ldexp(np.mean(scaled, axis=0), exp)
        se = np.ldexp(np.std(scaled, axis=0, ddof=1), exp) / np.sqrt(values.shape[0])
    return mean.tolist(), se.tolist()


def _replicates(one, rng: Rng, label: str, replicates: int) -> np.ndarray:
    """``np.array`` of ``one(rng.split(f"{label}{rep}"))`` for each replicate,
    run one after another in replicate order.  Fewer than two, which leave
    no standard error, are refused before any stream is drawn."""
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    return np.array([one(rng.split(f"{label}{rep}")) for rep in range(replicates)])


def estimate_stability(
    law: PopulationLaw,
    n: int,
    m: int,
    cfg: OptimizerConfig,
    replicates: int,
    rng: Rng,
    kinds: tuple[str, ...] = ("nu", "omega"),
) -> StabilityEstimate:
    """Monte Carlo estimate of the two replacement sensitivities.

    Each replicate draws a fresh dataset, a fresh replacement sample and
    a uniform position on its own child stream, then takes the output
    distance of one coupled pair per requested side.  Replicates run one
    after another through ``_replicates`` and are aggregated in replicate
    order.  ``kinds`` names each requested side once, and at least one.
    """
    for kind in kinds:
        if kind not in ("nu", "omega"):
            raise ValueError(f"unknown neighbor kind {kind!r}")
    if not kinds or len(set(kinds)) < len(kinds):
        raise ValueError(f"kinds must name 'nu', 'omega' or both, each once, not {kinds!r}")

    def one(rep_rng: Rng) -> tuple[float, float]:
        data = sample_dataset(law, n, m, rep_rng.split("data"))
        distance = {"nu": np.nan, "omega": np.nan}
        for kind in kinds:
            donor = sample_dataset(law, 1, 1, rep_rng.split(f"swap-{kind}"))
            size = n if kind == "nu" else m
            index = int(rep_rng.split(f"index-{kind}").generator().integers(0, size))
            neighbor = make_neighbor(data, kind, index, donor)
            out, out_nb = coupled_run(data, neighbor, cfg, rep_rng.split(f"run-{kind}"))
            with np.errstate(over="ignore"):  # a difference beyond the float range is inf
                distance[kind] = _norm(out - out_nb)
        return distance["nu"], distance["omega"]

    # An unrequested side is an all-NaN column, whose mean and SE are NaN.
    # Each column is reduced on its own: a 1-D sum is pairwise, an axis-0
    # sum of the 2-D array is not.
    (eps_nu, eps_nu_se), (eps_omega, eps_omega_se) = (
        _mean_se(col) for col in _replicates(one, rng, "rep-", replicates).T
    )
    return StabilityEstimate(eps_nu, eps_nu_se, eps_omega, eps_omega_se)


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
    sanity bound, not a certificate.  ``threads`` is accepted and has no
    effect: replicates run serially.
    """

    def one(rep_rng: Rng) -> tuple[float, float, float, float]:
        data = sample_dataset(law, n, m, rep_rng.split("data"))
        out = run(data, cfg, rep_rng.split("opt")).final_output
        gap = population_risk(law, out) - empirical_risk(data, out)
        variance = law.inner_variance_at(out)
        consts = compute_constants(data, cfg.domain_radius)
        return gap, variance, consts.lip_f, consts.lip_g

    results = _replicates(one, rng, "gap-rep-", replicates)
    # One column at a time, as in estimate_stability.
    (gap_mean, gap_se), (var_mean, var_se) = (_mean_se(col) for col in results[:, :2].T)
    lip_f, lip_g = results[:, 2:].max(axis=0).tolist()

    est = estimate_stability(law, n, m, cfg, replicates, rng.split("stability"))
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
