"""End-to-end acceptance gate.

Each test exercises one numbered criterion at its stated tolerance and
runtime budget and prints a single PASS/FAIL line.  Monte Carlo checks
run on fixed seeds, so every number below is reproducible bit for bit.
"""

import dataclasses
import time

import numpy as np
import pytest

from certificate_reference import erm_reference
from scolab.cli import parse_and_dispatch
from scolab.core import Rng, _norm, project_ball
from scolab.experiments import (
    excess_risk_study,
    fit_loglog_slope,
    optimization_study,
    tracking_study,
)
from scolab.optimizer import OptimizerConfig, Variant, run
from scolab.oracle import erm_minimizer, fd_gradient_check
from scolab.problems import (
    PopulationLaw,
    benchmark_law,
    compute_constants,
    empirical_risk,
    sample_dataset,
)
from scolab.stability import (
    check_generalization_inequality,
    coupled_run,
    estimate_stability,
)

SEED = Rng(2024)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_gradient_oracle():
    started = time.perf_counter()
    data = sample_dataset(benchmark_law("convex"), 40, 40, SEED.split("c1-data"))
    assert (data.p, data.d) == (5, 4)
    gen = SEED.split("c1-points").generator()
    worst = 0.0
    for _ in range(20):
        x = project_ball(gen.uniform(-10.0, 10.0, size=data.p), 10.0)
        worst = max(worst, fd_gradient_check(data, x, h=1e-5))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 1.0
    report(1, ok, f"max relative gradient error {worst:.3e} (< 1e-6), {elapsed:.2f}s")


def test_criterion_2_algorithm_algebra():
    started = time.perf_counter()
    # (a) the corrected tracker reproduces the iterate exactly for an
    # identity inner map, as every run starts at y0 = g(x0) = 0
    law = PopulationLaw(a0=np.eye(4), b0=np.zeros(4), c0=np.ones(4), tau_c=0.5)
    data = sample_dataset(law, 10, 1, SEED.split("c2-data"))
    cfg = OptimizerConfig(
        variant=Variant.SCSC, steps=10_000, eta=0.05, beta=0.4, record_tracking=True,
    )
    traj = run(data, cfg, SEED.split("c2-run"))
    max_gap = float(np.sqrt(traj.tracking_sq_errors.max()))
    ok_a = max_gap <= 1e-12

    # (b) unit tracking weight collapses both variants to the same code path
    bench = sample_dataset(benchmark_law("convex"), 20, 20, SEED.split("c2-bench"))
    runs = [
        run(
            bench,
            OptimizerConfig(variant=variant, steps=2048, eta=1e-3, beta=1.0),
            SEED.split("c2-beta1"),
        )
        for variant in (Variant.SCGD, Variant.SCSC)
    ]
    ok_b = (
        np.array_equal(runs[0].iterates, runs[1].iterates)
        and np.array_equal(runs[0].last, runs[1].last)
        and np.array_equal(runs[0].uniform_avg, runs[1].uniform_avg)
    )

    # (c) coupling on identical datasets is exactly lossless
    pair_cfg = OptimizerConfig(variant=Variant.SCGD, steps=1024, eta=1e-2, beta=0.2)
    output, neighbor_output = coupled_run(bench, bench, pair_cfg, SEED.split("c2-couple"))
    ok_c = np.array_equal(output, neighbor_output)
    distance = _norm(output - neighbor_output)

    elapsed = time.perf_counter() - started
    ok = ok_a and ok_b and ok_c and elapsed < 5.0
    report(
        2,
        ok,
        f"tracker gap {max_gap:.2e} (<=1e-12), beta=1 bitwise {ok_b}, "
        f"coupled distance {distance}, {elapsed:.2f}s",
    )


def test_criterion_3_oracle_dominance():
    started = time.perf_counter()
    law = benchmark_law("convex")
    worst_violation = -np.inf
    for instance in range(10):
        data = sample_dataset(law, 30, 30, SEED.split(f"c3-data-{instance}"))
        cert = erm_minimizer(data, 10.0)
        gen = SEED.split(f"c3-points-{instance}").generator()
        for _ in range(1000):
            x = project_ball(gen.uniform(-10.0, 10.0, size=data.p), 10.0)
            worst_violation = max(worst_violation, cert.value - empirical_risk(data, x))
    ok_dom = worst_violation <= 1e-10

    interior = sample_dataset(benchmark_law("strongly_convex"), 30, 30, SEED.split("c3-int"))
    closed = erm_minimizer(interior, 10.0)
    iterative, _ = erm_reference(interior, 10.0)
    method_gap = float(np.linalg.norm(closed.x_star - iterative))
    ok_agree = closed.method == "closed_form" and method_gap < 1e-8

    elapsed = time.perf_counter() - started
    ok = ok_dom and ok_agree and elapsed < 10.0
    report(
        3,
        ok,
        f"worst dominance violation {worst_violation:.2e} (<=1e-10), "
        f"solver agreement {method_gap:.2e} (<1e-8), {elapsed:.2f}s",
    )


def test_criterion_4_tracking_bound():
    started = time.perf_counter()
    fractions = {}
    for variant in (Variant.SCGD, Variant.SCSC):
        rows = tracking_study(
            variant=variant, law="convex", n=40, m=40,
            steps=5000, eta=1e-3, beta=0.1, replicates=50,
            seed=42, log_points=60,
        )
        rows = [row for row in rows if row.t >= 10]
        fractions[variant.value] = float(
            np.mean([row.mean_sq_error <= row.bound for row in rows])
        )
    elapsed = time.perf_counter() - started
    ok = all(frac >= 0.95 for frac in fractions.values()) and elapsed < 120.0
    report(
        4,
        ok,
        "bound held at fraction "
        + ", ".join(f"{k}={v:.3f}" for k, v in fractions.items())
        + f" of logged steps t>=10 (>=0.95), {elapsed:.1f}s",
    )


def test_criterion_5_optimization_error_direction():
    started = time.perf_counter()
    probe = sample_dataset(benchmark_law("strongly_convex"), 50, 50, Rng(42).split("c5-probe"))
    sigma = compute_constants(probe, 10.0).sigma
    assert sigma >= 0.5
    # constant steps of the form T^-a chosen so the horizon actually wins:
    # eta = beta = T^(-2/3) keeps eta*T growing while the per-step floor
    # shrinks, and respects both step caps of the strongly convex regime.
    grid = tuple((steps, float(steps) ** (-2.0 / 3.0), float(steps) ** (-2.0 / 3.0))
                 for steps in (2**8, 2**10, 2**12))
    rows = optimization_study(
        variant=Variant.SCSC, law="strongly_convex",
        n=50, m=50, step_grid=grid, replicates=100, seed=42,
        output_mode="sigma_weighted",
    )
    gaps = [row.gap_mean for row in rows]
    ses = [row.gap_se for row in rows]
    monotone = all(
        gaps[k + 1] <= gaps[k] + 2.0 * np.hypot(ses[k], ses[k + 1])
        for k in range(len(gaps) - 1)
    )
    reduction = gaps[-1] / gaps[0]
    elapsed = time.perf_counter() - started
    ok = monotone and reduction < 0.25 and elapsed < 180.0
    report(
        5,
        ok,
        f"gaps {[f'{g:.2e}' for g in gaps]} non-increasing within 2 SE: {monotone}, "
        f"T=4096 at {reduction:.1%} of T=256 (<25%), {elapsed:.1f}s",
    )


def test_criterion_6_convex_stability_scaling():
    started = time.perf_counter()
    law = dataclasses.replace(benchmark_law("convex"), tau_a=0.0, tau_b=0.0)
    cfg = OptimizerConfig(variant=Variant.SCGD, steps=2048, eta=1e-3, beta=0.1)
    sizes = (25, 50, 100)
    eps = []
    for n in sizes:
        est = estimate_stability(
            law, n, 50, cfg, 400, Rng(42).split(f"c6-{n}"), kinds=("nu",)
        )
        assert np.isnan(est.eps_omega)  # inner side degenerate, not estimated
        eps.append(est.eps_nu)
    slope = fit_loglog_slope(sizes, eps)
    elapsed = time.perf_counter() - started
    ok = -1.35 <= slope <= -0.65 and elapsed < 600.0
    report(
        6,
        ok,
        f"eps_nu {[f'{e:.3e}' for e in eps]} vs n {list(sizes)}: "
        f"log-log slope {slope:.3f} in [-1.35, -0.65], {elapsed:.1f}s",
    )


def test_criterion_7_strongly_convex_saturation():
    started = time.perf_counter()
    law_sc = benchmark_law("strongly_convex")
    probe = sample_dataset(law_sc, 50, 50, Rng(42).split("c7-probe"))
    consts = compute_constants(probe, 10.0)
    eta_cap = 1.0 / (2.0 * consts.smooth_l + 2.0 * consts.sigma)

    def ratio(law, eta):
        values = []
        for steps in (1024, 4096):
            cfg = OptimizerConfig(variant=Variant.SCGD, steps=steps, eta=eta, beta=0.1)
            est = estimate_stability(
                law, 50, 50, cfg, 400, Rng(42).split(f"c7-{eta}-{steps}"), kinds=("nu",)
            )
            values.append(est.eps_nu)
        return values[1] / values[0]

    saturation = ratio(law_sc, eta_cap)
    # small fixed step keeps the convex comparison in its growth regime
    growth = ratio(benchmark_law("convex"), 5e-4)
    elapsed = time.perf_counter() - started
    ok = saturation <= 1.5 and growth >= 1.5 and elapsed < 900.0
    report(
        7,
        ok,
        f"strongly convex ratio {saturation:.3f} (<=1.5) vs convex ratio "
        f"{growth:.3f} (>=1.5), eta_cap {eta_cap:.4f}, {elapsed:.1f}s",
    )


def test_criterion_8_excess_risk_slope():
    started = time.perf_counter()
    rows = excess_risk_study(
        variant=Variant.SCSC, convexity="strongly_convex",
        law="strongly_convex", size_grid=(20, 40, 80), replicates=200,
        seed=42, output_mode="sigma_weighted",
    )
    presets = [(row.n, row.steps, row.eta) for row in rows]
    expected = [(20, 33), (40, 74), (80, 167)]
    assert [(n, steps) for n, steps, _ in presets] == expected
    for _, steps, eta in presets:
        assert eta == pytest.approx(float(steps) ** (-6.0 / 7.0))
    slope = fit_loglog_slope([row.n for row in rows], [row.excess_mean for row in rows])
    elapsed = time.perf_counter() - started
    ok = -0.85 <= slope <= -0.20 and elapsed < 900.0
    report(
        8,
        ok,
        f"excess {[f'{row.excess_mean:.3e}' for row in rows]} at n=m in "
        f"{[row.n for row in rows]}: slope {slope:.3f} in [-0.85, -0.20], "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_generalization_inequality():
    started = time.perf_counter()
    cfg = OptimizerConfig(variant=Variant.SCGD, steps=512, eta=1e-3, beta=0.1)
    rep = check_generalization_inequality(
        benchmark_law("convex"), 40, 40, cfg, 400, Rng(42).split("c9")
    )
    elapsed = time.perf_counter() - started
    ok = rep.holds and elapsed < 600.0
    report(
        9,
        ok,
        f"gap {rep.gap_mean:.3e} <= rhs {rep.rhs:.3e} + 3 se ({rep.combined_se:.1e}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_reproducibility(tmp_path, capsys):
    started = time.perf_counter()
    outputs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        path = tmp_path / f"stability-{tag}.csv"
        code = parse_and_dispatch(
            [
                "stability", "--n", "10", "--m", "10", "--T", "256",
                "--replicates", "16", "--seed", "7", "--threads", threads,
                "--out", str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    same_seed = outputs[0] == outputs[1]
    same_threads = outputs[0] == outputs[2]

    tracks = []
    for tag in ("a", "b"):
        path = tmp_path / f"tracking-{tag}.csv"
        code = parse_and_dispatch(
            [
                "tracking", "--T", "400", "--replicates", "5", "--n", "8", "--m", "8",
                "--seed", "3", "--out", str(path),
            ]
        )
        assert code == 0
        tracks.append(path.read_bytes())
    capsys.readouterr()
    elapsed = time.perf_counter() - started
    ok = same_seed and same_threads and tracks[0] == tracks[1]
    report(
        10,
        ok,
        f"byte-identical reruns: seed {same_seed}, threads 1 vs 8 {same_threads}, "
        f"tracking {tracks[0] == tracks[1]}, {elapsed:.1f}s",
    )
