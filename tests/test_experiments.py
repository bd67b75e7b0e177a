import dataclasses

import numpy as np
import pytest

from scolab.experiments import (
    StudyConfig,
    excess_risk_study,
    fit_loglog_slope,
    optimization_study,
    tracking_study,
)
from scolab.optimizer import Variant
from scolab.problems import PopulationLaw, benchmark_law


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        xs = [10, 20, 40, 80]
        ys = [3.0 * x**-0.5 for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(-0.5, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0], [1.0])


class TestTrackingStudy:
    def test_single_inner_sample_with_unit_weight_has_zero_gap(self):
        law = dataclasses.replace(benchmark_law("convex"), tau_a=0.0, tau_b=0.0)
        cfg = StudyConfig(
            study="tracking", variant=Variant.SCGD, law=law, n=5, m=1,
            steps=200, eta=1e-2, beta=1.0, replicates=3, seed=1,
        )
        result = tracking_study(cfg)
        assert all(row.mean_sq_error == 0.0 for row in result.rows)

    def test_identity_inner_scsc_is_exact(self):
        law = PopulationLaw(a0=np.eye(4), b0=np.zeros(4), c0=np.ones(4), tau_c=0.5)
        cfg = StudyConfig(
            study="tracking", variant=Variant.SCSC, law=law, n=5, m=1,
            steps=500, eta=0.05, beta=0.5, replicates=3, seed=2,
        )
        result = tracking_study(cfg)
        # y0 = 0 = x0, so the corrected tracker reproduces the iterate exactly
        assert all(row.mean_sq_error < 1e-20 for row in result.rows)

    def test_rows_cover_log_grid_and_reproduce(self):
        cfg = StudyConfig(
            study="tracking", variant=Variant.SCSC, benchmark="convex", n=8, m=8,
            steps=300, eta=1e-3, beta=0.2, replicates=4, seed=3, log_points=12,
        )
        a = tracking_study(cfg)
        b = tracking_study(cfg)
        assert a.rows == b.rows
        assert a.measured_d_y == b.measured_d_y
        ts = [row.t for row in a.rows]
        assert ts == sorted(set(ts))
        assert ts[0] >= 1 and ts[-1] <= cfg.steps - 1
        assert all(row.bound > 0 for row in a.rows)

    def test_identical_replicates_have_no_standard_error(self):
        # eta = 0 and noiseless inner samples make every replicate the same
        # run; a one-pass variance cancels here, the two-pass one does not.
        law = dataclasses.replace(
            benchmark_law("convex"), tau_a=0.0, tau_b=0.0, b0=np.full(4, 0.7)
        )
        cfg = StudyConfig(
            study="tracking", variant=Variant.SCGD, law=law, n=5, m=5,
            steps=40, eta=0.0, beta=0.3, replicates=50, seed=6, log_points=10,
        )
        rows = tracking_study(cfg).rows
        assert all(row.mean_sq_error > 0 for row in rows)
        assert all(row.se <= 1e-14 * row.mean_sq_error for row in rows)

    def test_threads_do_not_change_rows(self):
        cfg1 = StudyConfig(
            study="tracking", variant=Variant.SCGD, benchmark="convex", n=6, m=6,
            steps=200, eta=1e-3, beta=0.2, replicates=6, seed=4, threads=1,
        )
        cfg4 = dataclasses.replace(cfg1, threads=4)
        assert tracking_study(cfg1).rows == tracking_study(cfg4).rows


class TestOptimizationStudy:
    def test_gap_never_meaningfully_negative(self):
        cfg = StudyConfig(
            study="optimization", variant=Variant.SCSC, benchmark="strongly_convex",
            n=10, m=10, step_grid=((64, 0.05, 0.5), (256, 0.02, 0.3)),
            replicates=5, seed=5, output_mode="uniform_average",
        )
        result = optimization_study(cfg)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.gap_mean >= -1e-10
            assert row.gap_se >= 0.0

    def test_deterministic_regime_reaches_tiny_gap(self):
        # With a single outer and single inner sample there is no gradient
        # noise, so a long run reaches the deterministic descent regime.
        law = dataclasses.replace(
            benchmark_law("strongly_convex"), tau_a=0.0, tau_b=0.0, tau_c=0.0
        )
        cfg = StudyConfig(
            study="optimization", variant=Variant.SCSC, law=law, n=1, m=1,
            step_grid=((4096, 0.2, 0.5),), replicates=2, seed=6,
            output_mode="last",
        )
        result = optimization_study(cfg)
        assert result.rows[0].gap_mean < 1e-4

    def test_warm_start_at_the_minimizer_stays_on_the_noise_floor(self):
        from scolab.core import Rng
        from scolab.oracle import erm_minimizer
        from scolab.problems import sample_dataset

        law = benchmark_law("strongly_convex")
        data = sample_dataset(
            law, 10, 10, Rng(11).split("optimization-study").split("data")
        )
        cert = erm_minimizer(data, 10.0)
        cfg = StudyConfig(
            study="optimization", variant=Variant.SCSC, law=law, n=10, m=10,
            step_grid=((512, 0.02, 0.3),), replicates=10, seed=11,
            output_mode="uniform_average", x0=cert.x_star,
        )
        result = optimization_study(cfg)
        row = result.rows[0]
        assert row.gap_mean >= -1e-10
        # the run never beats the certificate, and starting at the optimum
        # leaves only the stochastic-gradient noise floor
        assert row.gap_mean < 20.0 * cfg.step_grid[0][1]

    def test_requires_grid(self):
        with pytest.raises(ValueError, match="step_grid"):
            StudyConfig(study="optimization", replicates=5)


class TestExcessRiskStudy:
    def test_zero_noise_law_drives_excess_to_zero(self):
        # Without sampling noise there is no generalization gap at all,
        # so the excess is pure optimization error and decays with the
        # preset horizon, irrespective of the sample count.
        law = dataclasses.replace(
            benchmark_law("strongly_convex"), tau_a=0.0, tau_b=0.0, tau_c=0.0
        )
        cfg = StudyConfig(
            study="excess_risk", variant=Variant.SCSC, convexity="strongly_convex",
            law=law, size_grid=(128, 512, 2048), replicates=2, seed=7,
            output_mode="sigma_weighted",
        )
        result = excess_risk_study(cfg)
        values = [row.excess_mean for row in result.rows]
        assert values[0] > values[1] > values[2]
        assert values[2] < 2e-3
        for row in result.rows:
            assert row.excess_mean >= -3 * row.excess_se

    def test_rows_match_grid_and_record_preset(self):
        cfg = StudyConfig(
            study="excess_risk", variant=Variant.SCSC, convexity="strongly_convex",
            benchmark="strongly_convex", size_grid=(8, 16), replicates=4, seed=8,
            output_mode="sigma_weighted",
        )
        result = excess_risk_study(cfg)
        assert [row.n for row in result.rows] == [8, 16]
        for row in result.rows:
            assert row.steps >= 1
            assert 0 < row.eta < 1 and 0 < row.beta <= 1
            assert row.excess_mean >= -3 * row.excess_se
        assert np.isfinite(result.fitted_slope)

    def test_cap_is_applied_and_visible(self):
        cfg = StudyConfig(
            study="excess_risk", variant=Variant.SCGD, convexity="convex",
            benchmark="convex", size_grid=(64,), replicates=2, seed=9,
            t_max=512, output_mode="uniform_average",
        )
        result = excess_risk_study(cfg)
        assert result.rows[0].steps == 512
        assert result.t_max == 512

    def test_reproducible_bit_for_bit(self):
        cfg = StudyConfig(
            study="excess_risk", variant=Variant.SCSC, convexity="strongly_convex",
            benchmark="strongly_convex", size_grid=(8, 12), replicates=4, seed=10,
            threads=1, output_mode="sigma_weighted",
        )
        a = excess_risk_study(cfg)
        b = excess_risk_study(dataclasses.replace(cfg, threads=3))
        assert a.rows == b.rows
        assert a.fitted_slope == b.fitted_slope


class TestStudyConfigValidation:
    def test_unknown_study(self):
        with pytest.raises(ValueError, match="unknown study"):
            StudyConfig(study="fancy")

    def test_replicate_floor(self):
        with pytest.raises(ValueError, match="replicates"):
            StudyConfig(study="tracking", replicates=1)

    def test_tracking_needs_two_steps(self):
        with pytest.raises(ValueError, match="steps"):
            StudyConfig(study="tracking", steps=1, replicates=4)

    def test_excess_requires_sizes(self):
        with pytest.raises(ValueError, match="size_grid"):
            StudyConfig(study="excess_risk", replicates=4)
