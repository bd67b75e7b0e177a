import ast
import dataclasses
import inspect
import re
import textwrap

import numpy as np
import pytest

from scolab import experiments, optimizer, stability
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

    @pytest.mark.parametrize("xs, ys", [
        ([1.0, 2.0, np.inf], [1.0, 2.0, 2.0]), ([1.0, 2.0, 4.0], [1.0, 2.0, np.inf]),
        ([1.0, np.nan, 4.0], [1.0, 2.0, 2.0]), ([1.0, 2.0, 4.0], [np.nan, 2.0, 2.0]),
    ])
    def test_needs_finite_values(self, xs, ys, capfd):
        # An infinite x reaches LAPACK, which prints "On entry to DLASCL ..."
        # to file descriptor 1, where no warning filter sees it; an infinite
        # y fits NaN.
        with pytest.raises(ValueError, match="^a log-log slope needs finite positive values$"):
            fit_loglog_slope(xs, ys)
        captured = capfd.readouterr()
        assert "DLASCL" not in captured.out + captured.err


class TestLogStepGrid:
    @staticmethod
    def reference(max_t, points):
        raw = np.geomspace(1, max_t, num=min(points, max_t))
        return np.unique(np.round(raw).astype(np.int64))

    def test_equals_the_unique_of_the_rounded_geomspace(self):
        mismatches = []
        for max_t in [*range(1, 3000), 4999, 10**6, 10**12]:
            for points in (1, 2, 3, 10, 40, 60, 1000):
                grid = experiments._log_step_grid(max_t, points)
                expected = self.reference(max_t, points)
                if grid.dtype != expected.dtype or not np.array_equal(grid, expected):
                    mismatches.append((max_t, points))
        assert mismatches == []

    @pytest.mark.parametrize("max_t", [2**62 + 2**9 + 1, 2**63 - 2, 2**63 - 1])
    def test_top_point_rounding_past_max_t_is_clamped(self, max_t):
        # float(max_t) rounds up here, so the float grid ends past max_t
        assert float(max_t) > max_t
        grid = experiments._log_step_grid(max_t, 40)
        assert grid.dtype == np.int64
        assert grid[-1] == max_t
        assert (np.diff(grid) > 0).all()


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

    @pytest.mark.blas_portable
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_variant_by_value_is_the_enum(self, variant):
        # Every row, the ceiling included, is the enum's: the value string
        # must not run one variant and bound it with the other's ceiling.
        settings = dict(n=6, m=6, steps=60, replicates=3, seed=5, log_points=6)
        assert (tracking_study(variant=variant.value, **settings)
                == tracking_study(variant=variant, **settings))

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

    def test_sigma_weighted_on_convex_law_rejected_before_any_solve(self, monkeypatch):
        # The convex law's a_bar^T a_bar is rank-deficient, so its modulus is
        # cut to 0: name it before the certificate or any replicate runs.
        def no_call(*args, **kwargs):
            raise AssertionError("the study ran before checking the modulus")

        monkeypatch.setattr(experiments, "erm_minimizer", no_call)
        monkeypatch.setattr(experiments, "run", no_call)
        with pytest.raises(ValueError, match=r"empirical modulus \(the least eigenvalue of "
                           r"a_bar\^T a_bar\) is 0$"):
            optimization_study(
                step_grid=((64, 0.05, 0.5),), law="convex", replicates=2,
                output_mode="sigma_weighted",
            )

    def test_requires_grid(self):
        with pytest.raises(ValueError, match="step_grid"):
            optimization_study(step_grid=(), replicates=5)

    def test_every_grid_point_is_settled_before_any_replicate_runs(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a replicate ran before every grid point was settled")

        monkeypatch.setattr(experiments, "run", no_run)
        with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\]$"):
            optimization_study(step_grid=((256, 0.01, 0.1), (256, 0.01, 0.0)),
                               law="strongly_convex", replicates=50)


class TestExcessRiskStudy:
    def test_zero_noise_law_drives_excess_to_zero(self):
        # Without sampling noise there is no generalization gap at all,
        # so the excess is pure optimization error and decays with the
        # preset horizon, irrespective of the sample count.
        law = dataclasses.replace(
            benchmark_law("strongly_convex"), tau_a=0.0, tau_b=0.0, tau_c=0.0
        )
        rows = excess_risk_study(
            variant=Variant.SCSC, convexity="strongly_convex",
            law=law, size_grid=(128, 512, 2048), replicates=2, seed=7,
            output_mode="sigma_weighted",
        )
        values = [row.excess_mean for row in rows]
        assert values[0] > values[1] > values[2]
        assert values[2] < 2e-3
        for row in rows:
            assert row.excess_mean >= -3 * row.excess_se

    def test_rows_match_grid_and_record_preset(self):
        rows = excess_risk_study(
            variant=Variant.SCSC, convexity="strongly_convex",
            law="strongly_convex", size_grid=(8, 16), replicates=4, seed=8,
            output_mode="sigma_weighted",
        )
        assert [row.n for row in rows] == [8, 16]
        for row in rows:
            assert row.steps >= 1
            assert 0 < row.eta < 1 and 0 < row.beta <= 1
            assert row.excess_mean >= -3 * row.excess_se

    def test_cap_is_applied_and_visible(self):
        rows = excess_risk_study(
            variant=Variant.SCGD, convexity="convex",
            law="convex", size_grid=(64,), replicates=2, seed=9,
            t_max=512, output_mode="uniform_average",
        )
        assert rows[0].steps == 512

    def test_every_size_is_settled_before_any_replicate_runs(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a replicate ran before every size was settled")

        monkeypatch.setattr(experiments, "run", no_run)
        with pytest.raises(ValueError, match="is beyond the float range"):
            excess_risk_study(size_grid=(20, 10**400), variant="scsc",
                              convexity="strongly_convex", law="strongly_convex",
                              replicates=50)

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
        assert excess_risk_study(**settings) == excess_risk_study(**settings)


STUDIES = [tracking_study, optimization_study, excess_risk_study]


class TestStudyConfigValidation:
    """Each study validates its own settings and accepts no other."""

    def test_replicate_floor(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a kernel step ran before the replicate count was checked")

        monkeypatch.setattr(optimizer, "_run_with_indices", no_step)
        monkeypatch.setattr(stability, "_run_with_indices", no_step)
        for study, grid in zip(STUDIES, ({}, {"step_grid": ((8, 0.1, 0.5),)}, {"size_grid": (4,)})):
            for replicates in (1, 0):
                with pytest.raises(ValueError, match="^replicates must be >= 2$"):
                    study(replicates=replicates, **grid)

    def test_tracking_needs_two_steps(self):
        with pytest.raises(ValueError, match="steps"):
            tracking_study(steps=1, replicates=4)

    def test_tracking_needs_a_log_point(self):
        with pytest.raises(ValueError, match="log_points"):
            tracking_study(steps=10, replicates=4, log_points=0)

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
