import ast
import dataclasses
import inspect
import re
import textwrap

import numpy as np
import pytest

from scolab import experiments
from scolab.experiments import (
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

    def test_needs_two_distinct_x_values(self):
        # points at one x leave the slope undefined; least squares would
        # still return a number
        with pytest.raises(ValueError, match="distinct"):
            fit_loglog_slope([6, 6], [0.5, 0.3])

    @pytest.mark.parametrize("xs, ys", [
        ([1.0, 2.0], [0.0, 1.0]), ([1.0, 2.0], [1.0, -1.0]), ([0.0, 2.0], [1.0, 1.0]),
    ])
    def test_needs_positive_values(self, xs, ys):
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope(xs, ys)


class TestTrackingStudy:
    def test_single_inner_sample_with_unit_weight_has_zero_gap(self):
        law = dataclasses.replace(benchmark_law("convex"), tau_a=0.0, tau_b=0.0)
        rows = tracking_study(
            variant=Variant.SCGD, law=law, n=5, m=1,
            steps=200, eta=1e-2, beta=1.0, replicates=3, seed=1,
        )
        assert all(row.mean_sq_error == 0.0 for row in rows)

    def test_identity_inner_scsc_is_exact(self):
        law = PopulationLaw(a0=np.eye(4), b0=np.zeros(4), c0=np.ones(4), tau_c=0.5)
        rows = tracking_study(
            variant=Variant.SCSC, law=law, n=5, m=1,
            steps=500, eta=0.05, beta=0.5, replicates=3, seed=2,
        )
        # y0 = 0 = x0, so the corrected tracker reproduces the iterate exactly
        assert all(row.mean_sq_error < 1e-20 for row in rows)

    def test_rows_cover_log_grid_and_reproduce(self):
        settings = dict(
            variant=Variant.SCSC, law="convex", n=8, m=8,
            steps=300, eta=1e-3, beta=0.2, replicates=4, seed=3, log_points=12,
        )
        a = tracking_study(**settings)
        b = tracking_study(**settings)
        assert a == b
        ts = [row.t for row in a]
        assert ts == sorted(set(ts))
        assert ts[0] >= 1 and ts[-1] <= settings["steps"] - 1
        assert all(row.bound > 0 for row in a)

    def test_identical_replicates_have_no_standard_error(self):
        # eta = 0 and noiseless inner samples make every replicate the same
        # run; a one-pass variance cancels here, the two-pass one does not.
        law = dataclasses.replace(
            benchmark_law("convex"), tau_a=0.0, tau_b=0.0, b0=np.full(4, 0.7)
        )
        rows = tracking_study(
            variant=Variant.SCGD, law=law, n=5, m=5,
            steps=40, eta=0.0, beta=0.3, replicates=50, seed=6, log_points=10,
        )
        assert all(row.mean_sq_error > 0 for row in rows)
        assert all(row.se <= 1e-14 * row.mean_sq_error for row in rows)

    def test_law_by_name_is_the_benchmark_law(self):
        settings = dict(n=6, m=6, steps=60, replicates=3, seed=4, log_points=6)
        by_name = tracking_study(law="strongly_convex", **settings)
        by_law = tracking_study(law=benchmark_law("strongly_convex"), **settings)
        assert by_name == by_law
        assert tracking_study(**settings) == tracking_study(law="convex", **settings)


class TestOptimizationStudy:
    def test_gap_never_meaningfully_negative(self):
        rows = optimization_study(
            variant=Variant.SCSC, law="strongly_convex",
            n=10, m=10, step_grid=((64, 0.05, 0.5), (256, 0.02, 0.3)),
            replicates=5, seed=5, output_mode="uniform_average",
        )
        assert len(rows) == 2
        for row in rows:
            assert row.gap_mean >= -1e-10
            assert row.gap_se >= 0.0

    def test_deterministic_regime_reaches_tiny_gap(self):
        # With a single outer and single inner sample there is no gradient
        # noise, so a long run reaches the deterministic descent regime.
        law = dataclasses.replace(
            benchmark_law("strongly_convex"), tau_a=0.0, tau_b=0.0, tau_c=0.0
        )
        rows = optimization_study(
            variant=Variant.SCSC, law=law, n=1, m=1,
            step_grid=((4096, 0.2, 0.5),), replicates=2, seed=6,
            output_mode="last",
        )
        assert rows[0].gap_mean < 1e-4

    def test_warm_start_at_the_minimizer_stays_on_the_noise_floor(self):
        from scolab.core import Rng
        from scolab.optimizer import OptimizerConfig, run
        from scolab.oracle import erm_minimizer
        from scolab.problems import empirical_risk, sample_dataset

        root = Rng(11).split("optimization-study")
        data = sample_dataset(benchmark_law("strongly_convex"), 10, 10, root.split("data"))
        cert = erm_minimizer(data, 10.0)
        eta = 0.02
        cfg = OptimizerConfig(
            variant=Variant.SCSC, steps=512, eta=eta, beta=0.3, domain_radius=10.0,
            x0=cert.x_star, output_mode="uniform_average",
        )
        gap_mean = np.mean([
            empirical_risk(data, run(data, cfg, root.split(f"grid-0-rep-{rep}")).final_output)
            - cert.value
            for rep in range(10)
        ])
        assert gap_mean >= -1e-10
        # the run never beats the certificate, and starting at the optimum
        # leaves only the stochastic-gradient noise floor
        assert gap_mean < 20.0 * eta

    def test_requires_grid(self):
        with pytest.raises(ValueError, match="step_grid"):
            optimization_study(step_grid=(), replicates=5)


class TestExcessRiskStudy:
    def test_zero_noise_law_drives_excess_to_zero(self):
        # Without sampling noise there is no generalization gap at all,
        # so the excess is pure optimization error and decays with the
        # preset horizon, irrespective of the sample count.
        law = dataclasses.replace(
            benchmark_law("strongly_convex"), tau_a=0.0, tau_b=0.0, tau_c=0.0
        )
        result = excess_risk_study(
            variant=Variant.SCSC, convexity="strongly_convex",
            law=law, size_grid=(128, 512, 2048), replicates=2, seed=7,
            output_mode="sigma_weighted",
        )
        values = [row.excess_mean for row in result.rows]
        assert values[0] > values[1] > values[2]
        assert values[2] < 2e-3
        for row in result.rows:
            assert row.excess_mean >= -3 * row.excess_se

    def test_rows_match_grid_and_record_preset(self):
        result = excess_risk_study(
            variant=Variant.SCSC, convexity="strongly_convex",
            law="strongly_convex", size_grid=(8, 16), replicates=4, seed=8,
            output_mode="sigma_weighted",
        )
        assert [row.n for row in result.rows] == [8, 16]
        for row in result.rows:
            assert row.steps >= 1
            assert 0 < row.eta < 1 and 0 < row.beta <= 1
            assert row.excess_mean >= -3 * row.excess_se
        assert np.isfinite(result.fitted_slope)

    def test_cap_is_applied_and_visible(self):
        result = excess_risk_study(
            variant=Variant.SCGD, convexity="convex",
            law="convex", size_grid=(64,), replicates=2, seed=9,
            t_max=512, output_mode="uniform_average",
        )
        assert result.rows[0].steps == 512
        assert np.isnan(result.fitted_slope)

    def test_one_distinct_size_has_no_slope(self):
        result = excess_risk_study(size_grid=(6, 6), replicates=3, seed=9)
        assert [row.n for row in result.rows] == [6, 6]
        assert np.isnan(result.fitted_slope)

    def test_sigma_weighted_rejects_rounding_noise_modulus(self):
        # a0^T a0 has rank 1, but eigvalsh returns a least eigenvalue of
        # about +1e-18 for it under every x86-64 OpenBLAS core type, so a
        # sign test alone would start the study at that sigma.
        law = PopulationLaw(a0=[[0.1, 0.3, 0.1]], b0=[0.0], c0=[1.0])
        with pytest.raises(ValueError, match=r"population modulus \(the least eigenvalue of "
                           r"a0\^T a0\) is 0$"):
            excess_risk_study(
                variant=Variant.SCSC, convexity="strongly_convex", law=law,
                size_grid=(4,), replicates=2, output_mode="sigma_weighted",
            )

    def test_reproducible_bit_for_bit(self):
        settings = dict(
            variant=Variant.SCSC, convexity="strongly_convex",
            law="strongly_convex", size_grid=(8, 12), replicates=4, seed=10,
            output_mode="sigma_weighted",
        )
        a = excess_risk_study(**settings)
        b = excess_risk_study(**settings)
        assert a.rows == b.rows
        assert a.fitted_slope == b.fitted_slope


STUDIES = [tracking_study, optimization_study, excess_risk_study]


class TestStudyConfigValidation:
    """Each study validates its own settings and accepts no other."""

    def test_replicate_floor(self):
        for study, grid in zip(STUDIES, ({}, {"step_grid": ((8, 0.1, 0.5),)}, {"size_grid": (4,)})):
            with pytest.raises(ValueError, match="replicates"):
                study(replicates=1, **grid)

    def test_tracking_needs_two_steps(self):
        with pytest.raises(ValueError, match="steps"):
            tracking_study(steps=1, replicates=4)

    def test_tracking_needs_a_log_point(self):
        with pytest.raises(ValueError, match="log_points"):
            tracking_study(steps=10, replicates=4, log_points=0)

    @pytest.mark.parametrize("tracking_c", [0.0, -1.0, float("nan"), float("inf")])
    def test_tracking_c_rejected_before_any_run(self, monkeypatch, tracking_c):
        def no_run(*args, **kwargs):
            raise AssertionError("a replicate ran before tracking_c was checked")

        monkeypatch.setattr(experiments, "run", no_run)
        with pytest.raises(ValueError, match="free_c must be positive"):
            tracking_study(tracking_c=tracking_c, replicates=4)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("eta, beta", [(1e300, 0.1), (1e-3, 1e-200)])
    def test_unbounded_ceiling_rejected_before_any_run(self, monkeypatch, variant, eta, beta):
        def no_run(*args, **kwargs):
            raise AssertionError("a replicate ran before the ceiling was checked")

        monkeypatch.setattr(experiments, "run", no_run)
        with pytest.raises(ValueError, match="bound value must be finite and nonnegative"):
            tracking_study(variant=variant, eta=eta, beta=beta, replicates=4)

    @pytest.mark.parametrize("radius", [5e153, 1e154])
    def test_radius_that_overflows_the_ceiling_is_named(self, monkeypatch, radius):
        def no_run(*args, **kwargs):
            raise AssertionError("a replicate ran before the ceiling was checked")

        monkeypatch.setattr(experiments, "run", no_run)
        message = (f"domain radius {radius!r} is too large for the tracking ceiling: "
                   "lip_f**2 * lip_g**3 overflows at lip_f = ")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            tracking_study(domain_radius=radius, replicates=4)

    def test_excess_requires_sizes(self):
        with pytest.raises(ValueError, match="size_grid"):
            excess_risk_study(size_grid=(), replicates=4)

    @pytest.mark.parametrize("study, setting", [
        (tracking_study, {"x0": np.zeros(5)}),
        (tracking_study, {"output_mode": "last"}),
        (tracking_study, {"threads": 2}),
        (optimization_study, {"convexity": "convex"}),
        (optimization_study, {"t_max": 10}),
        (optimization_study, {"x0": np.zeros(5)}),
        (excess_risk_study, {"n": 10}),
        (excess_risk_study, {"step_grid": ((8, 0.1, 0.5),)}),
    ])
    def test_unread_settings_are_type_errors(self, study, setting):
        with pytest.raises(TypeError, match=next(iter(setting))):
            study(**setting)

    @pytest.mark.parametrize("study", STUDIES)
    def test_settings_are_keyword_only(self, study):
        with pytest.raises(TypeError):
            study(Variant.SCGD)


@pytest.mark.parametrize("study", STUDIES)
def test_every_setting_a_study_accepts_is_one_it_reads(study):
    """A parameter the body never loads would be accepted and then ignored."""
    func = ast.parse(textwrap.dedent(inspect.getsource(study))).body[0]
    assert func.args.vararg is None and func.args.kwarg is None
    params = {a.arg for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs}
    read = {
        node.id
        for statement in func.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert params - read == set()
