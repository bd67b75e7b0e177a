import dataclasses
import math

import numpy as np
import pytest

from scalar_reference import drawn_indices
from scolab import optimizer, stability
from scolab.core import Rng, _norm
from scolab.optimizer import OUTPUT_MODES, OptimizerConfig, Variant, run
from scolab.problems import (
    Dataset,
    PopulationLaw,
    benchmark_law,
    empirical_inner,
    sample_dataset,
)
from scolab.stability import (
    _mean_se,
    check_generalization_inequality,
    coupled_run,
    estimate_stability,
    make_neighbor,
)

RNG = Rng(404)


def small_cfg(variant=Variant.SCGD, steps=200, eta=1e-2, beta=0.2, **kw):
    return OptimizerConfig(variant=variant, steps=steps, eta=eta, beta=beta, **kw)


def donor(data, a=0.0, b=0.0, c=0.0):
    """One-sample dataset of the data's dimensions with constant entries."""
    return Dataset(
        inner_a=np.full((1, data.d, data.p), a),
        inner_b=np.full((1, data.d), b),
        outer_c=np.full((1, data.d), c),
    )


def same_samples(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("inner_a", "inner_b", "outer_c")
    )


class TestMakeNeighbor:
    def test_identical_replacement_gives_equal_dataset(self):
        data = sample_dataset(benchmark_law("convex"), 6, 6, RNG.split("eq"))
        same = Dataset(data.inner_a[3:4], data.inner_b[3:4], data.outer_c[2:3])
        assert same_samples(make_neighbor(data, "nu", 2, same), data)
        assert same_samples(make_neighbor(data, "omega", 3, same), data)

    def test_nu_neighbor_keeps_inner_samples(self):
        data = sample_dataset(benchmark_law("convex"), 6, 6, RNG.split("nu"))
        original = Dataset(data.inner_a.copy(), data.inner_b.copy(), data.outer_c.copy())
        neighbor = make_neighbor(data, "nu", 1, donor(data, a=1.0, b=1.0))
        assert np.array_equal(neighbor.inner_a, data.inner_a)
        assert np.array_equal(neighbor.inner_b, data.inner_b)
        np.testing.assert_array_equal(neighbor.outer_c[1], np.zeros(data.d))
        assert np.array_equal(np.delete(neighbor.outer_c, 1, axis=0),
                              np.delete(data.outer_c, 1, axis=0))
        # the original is untouched
        assert same_samples(data, original)
        assert not np.array_equal(data.outer_c[1], np.zeros(data.d))

    def test_serialized_difference_is_one_record(self):
        data = sample_dataset(benchmark_law("convex"), 6, 6, RNG.split("ser"))
        neighbor = make_neighbor(data, "omega", 4, donor(data, b=1.0, c=7.0))
        differs = np.any(neighbor.inner_a != data.inner_a, axis=(1, 2)) | np.any(
            neighbor.inner_b != data.inner_b, axis=1
        )
        assert np.flatnonzero(differs).tolist() == [4]
        assert np.array_equal(neighbor.outer_c, data.outer_c)

    def test_index_out_of_range(self):
        data = sample_dataset(benchmark_law("convex"), 3, 3, RNG.split("rng"))
        with pytest.raises(IndexError):
            make_neighbor(data, "nu", 3, donor(data))
        with pytest.raises(IndexError):
            make_neighbor(data, "omega", -1, donor(data))

    def test_kind_and_payload_validated(self):
        data = sample_dataset(benchmark_law("convex"), 3, 3, RNG.split("kind"))
        with pytest.raises(ValueError, match="unknown neighbor kind"):
            make_neighbor(data, "mu", 0, donor(data))
        # a donor of other dimensions would otherwise broadcast into the row
        narrow = Dataset(np.zeros((1, 1, data.p)), np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="donor dimensions"):
            make_neighbor(data, "nu", 0, narrow)


class TestCoupledRun:
    @pytest.mark.parametrize("variant", [Variant.SCGD, Variant.SCSC])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_datasets_give_zero_distance(self, variant, seed):
        data = sample_dataset(benchmark_law("convex"), 8, 8, RNG.split(f"z{seed}"))
        cfg = small_cfg(variant)
        output, neighbor_output = coupled_run(data, data, cfg, RNG.split(f"zr{seed}"))
        np.testing.assert_array_equal(output, neighbor_output)

    def test_unsampled_inner_replacement_is_invisible(self):
        data = sample_dataset(benchmark_law("convex"), 5, 64, RNG.split("uns"))
        cfg = small_cfg(steps=30)
        j_idx, _ = drawn_indices(data, cfg.steps, RNG.split("unsrun").split("indices"))
        unseen = next(j for j in range(data.m) if j not in set(j_idx.tolist()))
        neighbor = make_neighbor(data, "omega", unseen, donor(data, b=1.0))
        output, neighbor_output = coupled_run(data, neighbor, cfg, RNG.split("unsrun"))
        np.testing.assert_array_equal(output, neighbor_output)

    def test_distance_bounded_by_diameter(self):
        data = sample_dataset(benchmark_law("convex"), 5, 5, RNG.split("diam"))
        neighbor = make_neighbor(data, "nu", 0, donor(data, c=50.0))
        cfg = small_cfg(eta=0.9, steps=300, domain_radius=2.0)
        output, neighbor_output = coupled_run(data, neighbor, cfg, RNG.split("diamrun"))
        assert _norm(output - neighbor_output) <= 2 * 2.0

    def test_mismatched_sizes_rejected(self):
        a = sample_dataset(benchmark_law("convex"), 4, 4, RNG.split("mma"))
        b = sample_dataset(benchmark_law("convex"), 5, 4, RNG.split("mmb"))
        with pytest.raises(ValueError, match="non-neighboring datasets"):
            coupled_run(a, b, small_cfg(), RNG.split("mm"))

    def test_mismatched_dimensions_rejected_before_either_run(self, monkeypatch):
        # Same (n, m), but p = 5, d = 4 against p = 4, d = 5.
        a = sample_dataset(benchmark_law("convex"), 4, 4, RNG.split("mda"))
        b = sample_dataset(benchmark_law("strongly_convex"), 4, 4, RNG.split("mdb"))

        def no_run(*args, **kwargs):
            raise AssertionError("a run started on datasets of different dimensions")

        monkeypatch.setattr(stability, "_run_with_indices", no_run)
        with pytest.raises(ValueError, match="^non-neighboring datasets$"):
            coupled_run(a, b, small_cfg(), RNG.split("md"))


    def test_distance_past_the_square_range_is_exact(self):
        # Steps of 1e154 put the outputs near 1e307, where the squares of a
        # plain norm overflow; the distance estimate_stability takes, _norm
        # of the difference, is its exact norm.
        data = sample_dataset(benchmark_law("convex"), 2, 2, RNG.split("huge"))
        neighbor = make_neighbor(data, "nu", 0, donor(data, c=1.0))
        cfg = small_cfg(steps=2, eta=1e154, beta=0.1, domain_radius=1.7e308)
        output, neighbor_output = coupled_run(data, neighbor, cfg, RNG.split("hugerun"))
        out, out_nb = (run(d, cfg, RNG.split("hugerun").split("indices")).final_output
                       for d in (data, neighbor))
        np.testing.assert_array_equal(output, out)
        np.testing.assert_array_equal(neighbor_output, out_nb)
        distance = _norm(output - neighbor_output)
        assert 1e300 < distance < np.inf
        assert distance == pytest.approx(math.hypot(*(out - out_nb)), rel=1e-15)

    @pytest.mark.blas_portable
    @pytest.mark.parametrize("variant", [Variant.SCGD, Variant.SCSC])
    @pytest.mark.parametrize("output_mode", OUTPUT_MODES)
    def test_outputs_are_the_two_runs_on_one_draw(self, variant, output_mode):
        data = sample_dataset(benchmark_law("convex"), 6, 6, RNG.split("pair"))
        neighbor = make_neighbor(data, "nu", 2, donor(data, c=3.0))
        sigma = 1.0 if output_mode == "sigma_weighted" else None
        cfg = small_cfg(variant, output_mode=output_mode, sigma=sigma)
        pair = coupled_run(data, neighbor, cfg, RNG.split("pairrun"))
        solo = [run(d, cfg, RNG.split("pairrun").split("indices")) for d in (data, neighbor)]
        assert len(pair) == 2
        for output, trajectory in zip(pair, solo):
            np.testing.assert_array_equal(output, trajectory.final_output)
        assert not np.shares_memory(*pair)
        assert not np.array_equal(*pair)
        if output_mode == "uniform_random":
            # Both outputs are the iterate of the one drawn step; T = 200 stores every step.
            step = optimizer._draw_indices(data, cfg, RNG.split("pairrun").split("indices"))[2]
            for output, trajectory in zip(pair, solo):
                np.testing.assert_array_equal(output, trajectory.iterates[step - 1])


class TestMeanSe:
    def test_normal_range_keeps_numpy_bytes(self):
        values = RNG.split("mse").generator().standard_normal((5, 3)) * [1.0, 1e-300, 1e140]
        mean, se = _mean_se(values)
        assert mean == np.mean(values, axis=0).tolist()
        assert se == (np.std(values, axis=0, ddof=1) / np.sqrt(5)).tolist()

    def test_columns_past_the_square_range_are_exact(self):
        # np.std squares 1e307 to inf; the rescaled reduction does not, and
        # a small column beside the huge one keeps numpy's bytes.
        values = np.array([[1e307, 1.0], [3e307, 2.0]])
        (mean, small_mean), (se, small_se) = _mean_se(values)
        assert mean == pytest.approx(2e307, rel=1e-15)
        assert se == pytest.approx(1e307, rel=1e-15)
        assert (small_mean, small_se) == _mean_se(values[:, 1])
        assert _mean_se(values[:, 1]) == (1.5, float(np.std([1.0, 2.0], ddof=1) / np.sqrt(2)))

    @pytest.mark.parametrize("column, mean", [
        ([np.inf, 1.0], np.inf), ([-np.inf, 1.0], -np.inf), ([np.inf, -np.inf], np.nan),
    ])
    def test_infinite_column_has_nan_error_without_warning(self, column, mean):
        # RuntimeWarnings are errors under the test settings.
        got_mean, got_se = _mean_se(np.array(column))
        np.testing.assert_equal(got_mean, mean)
        assert np.isnan(got_se)


class TestEstimateStability:
    def test_zero_noise_law_is_perfectly_stable(self):
        law = PopulationLaw(a0=np.eye(3), b0=np.zeros(3), c0=np.ones(3))
        est = estimate_stability(law, 5, 5, small_cfg(), 4, RNG.split("zn"))
        assert est.eps_nu == 0.0 and est.eps_nu_se == 0.0
        assert est.eps_omega == 0.0 and est.eps_omega_se == 0.0

    def test_zero_step_size_is_perfectly_stable(self):
        law = benchmark_law("convex")
        cfg = OptimizerConfig(variant=Variant.SCGD, steps=1, eta=0.0, beta=0.5)
        est = estimate_stability(law, 5, 5, cfg, 4, RNG.split("eta0"))
        assert est.eps_nu == 0.0
        assert est.eps_omega == 0.0

    def test_degenerate_inner_family_has_zero_omega_sensitivity(self):
        law = dataclasses.replace(benchmark_law("convex"), tau_a=0.0, tau_b=0.0)
        est = estimate_stability(law, 10, 10, small_cfg(), 20, RNG.split("dg"))
        assert est.eps_omega == 0.0
        assert est.eps_nu > 0.0

    def test_estimates_finite_and_nonnegative(self):
        est = estimate_stability(
            benchmark_law("convex"), 8, 8, small_cfg(), 10, RNG.split("fin")
        )
        for value in (est.eps_nu, est.eps_nu_se, est.eps_omega, est.eps_omega_se):
            assert np.isfinite(value) and value >= 0.0

    def test_requested_kinds_only(self):
        est = estimate_stability(
            benchmark_law("convex"), 6, 6, small_cfg(steps=50), 4,
            RNG.split("kind"), kinds=("nu",),
        )
        assert est.eps_nu >= 0.0
        assert np.isnan(est.eps_omega)
        assert np.isnan(est.eps_omega_se)

    def test_requested_omega_only(self):
        est = estimate_stability(
            benchmark_law("convex"), 6, 6, small_cfg(steps=50), 4,
            RNG.split("kind"), kinds=("omega",),
        )
        assert est.eps_omega >= 0.0
        assert np.isnan(est.eps_nu)
        assert np.isnan(est.eps_nu_se)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown neighbor kind 'mu'$"):
            estimate_stability(benchmark_law("convex"), 4, 4, small_cfg(), 2, RNG, kinds=("mu",))

    @pytest.mark.parametrize("kinds", [(), ("nu", "nu"), ("omega", "nu", "omega")])
    def test_empty_or_repeated_kinds_rejected_before_any_draw(self, monkeypatch, kinds):
        def no_data(*args, **kwargs):
            raise AssertionError("a dataset was drawn before kinds was checked")

        monkeypatch.setattr(stability, "sample_dataset", no_data)
        with pytest.raises(ValueError, match="^kinds must name"):
            estimate_stability(benchmark_law("convex"), 4, 4, small_cfg(), 2, RNG, kinds=kinds)

    def test_replicates_validated(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a kernel step ran before the replicate count was checked")

        monkeypatch.setattr(optimizer, "_run_with_indices", no_step)
        monkeypatch.setattr(stability, "_run_with_indices", no_step)
        for estimate in (estimate_stability, check_generalization_inequality):
            for replicates in (1, 0):
                with pytest.raises(ValueError, match="^replicates must be >= 2$"):
                    estimate(benchmark_law("convex"), 4, 4, small_cfg(), replicates, RNG)

    @pytest.mark.blas_portable
    def test_mean_of_the_coupled_distances_on_the_documented_streams(self):
        law = benchmark_law("convex")
        n, m, replicates = 6, 5, 5
        cfg = small_cfg(Variant.SCSC, steps=300)
        rng = RNG.split("streams")
        est = estimate_stability(law, n, m, cfg, replicates, rng)
        for kind, size, reading in (("nu", n, (est.eps_nu, est.eps_nu_se)),
                                    ("omega", m, (est.eps_omega, est.eps_omega_se))):
            distances = []
            for r in range(replicates):
                rep = rng.split(f"rep-{r}")
                data = sample_dataset(law, n, m, rep.split("data"))
                swap = sample_dataset(law, 1, 1, rep.split(f"swap-{kind}"))
                index = int(rep.split(f"index-{kind}").generator().integers(0, size))
                neighbor = make_neighbor(data, kind, index, swap)
                output, neighbor_output = coupled_run(data, neighbor, cfg,
                                                      rep.split(f"run-{kind}"))
                distances.append(_norm(output - neighbor_output))
            assert reading == _mean_se(np.array(distances))

    def test_convex_sensitivity_grows_with_horizon(self):
        # without strong convexity the coupled displacement accumulates,
        # so longer runs are no less sensitive (up to 2 standard errors)
        law = benchmark_law("convex")
        readings = []
        for steps in (256, 1024, 4096):
            cfg = OptimizerConfig(variant=Variant.SCGD, steps=steps, eta=5e-4, beta=0.1)
            est = estimate_stability(
                law, 25, 25, cfg, 60, RNG.split(f"growth-{steps}"), kinds=("nu",)
            )
            readings.append((est.eps_nu, est.eps_nu_se))
        for (lo, lo_se), (hi, hi_se) in zip(readings, readings[1:]):
            assert hi >= lo - 2.0 * np.hypot(lo_se, hi_se)


@pytest.mark.blas_portable
class TestReplaceOneIdentity:
    """The outer part of the gap, h(g_S(A)) - h_S(g_S(A)), has the expectation
    of f_i(g_S(A(S^(i)))) - f_i(g_S(A(S))), where S^(i) swaps outer sample i
    for a fresh one and f_i(y) = 0.5 ||y - c_i||^2: an outer swap leaves g_S
    unchanged, so the swapped pair is exchangeable with (S, fresh sample).
    Here h(y) = E f(y) and h_S is its mean over the outer samples."""

    @pytest.mark.parametrize("variant", [Variant.SCGD, Variant.SCSC])
    @pytest.mark.parametrize("kind, eta", [("convex", 1e-2), ("strongly_convex", 5e-2)])
    def test_direct_and_identity_outer_parts_agree(self, kind, eta, variant):
        law = benchmark_law(kind)
        n = m = 10
        cfg = OptimizerConfig(variant=variant, steps=256, eta=eta, beta=0.1)
        rng = RNG.split(f"replace-one-{kind}-{variant.value}")
        direct, identity = [], []
        for r in range(200):
            rep = rng.split(f"rep-{r}")
            data = sample_dataset(law, n, m, rep.split("data"))
            swap = sample_dataset(law, 1, 1, rep.split("swap"))
            i = int(rep.split("index").generator().integers(0, n))
            output, neighbor_output = coupled_run(data, make_neighbor(data, "nu", i, swap), cfg,
                                                  rep.split("run"))
            y, y_nb = empirical_inner(data, output), empirical_inner(data, neighbor_output)
            h = 0.5 * np.sum((y - law.c0) ** 2) + 0.5 * law.outer_variance
            h_s = 0.5 * np.sum((y - data.c_bar) ** 2) + 0.5 * data.outer_spread
            c = data.outer_c[i]
            direct.append(h - h_s)
            identity.append(0.5 * np.sum((y_nb - c) ** 2) - 0.5 * np.sum((y - c) ** 2))
        (mean_d, se_d), (mean_i, se_i) = _mean_se(np.array(direct)), _mean_se(np.array(identity))
        z = (mean_d - mean_i) / math.hypot(se_d, se_i)
        assert abs(z) <= 3.0, (
            f"direct {mean_d:.3e} +- {se_d:.1e}, identity {mean_i:.3e} +- {se_i:.1e}")


class TestGeneralizationInequality:
    def test_zero_noise_law_has_null_report(self):
        law = PopulationLaw(a0=np.eye(3), b0=np.zeros(3), c0=np.ones(3))
        report = check_generalization_inequality(
            law, 4, 4, small_cfg(steps=50), 4, RNG.split("zn")
        )
        assert abs(report.gap_mean) < 1e-12
        assert report.rhs < 1e-12
        assert report.holds

    def test_identity_inner_single_sample_reduces_to_plain_form(self):
        law = PopulationLaw(a0=np.eye(3), b0=np.zeros(3), c0=np.ones(3), tau_c=0.5)
        report = check_generalization_inequality(
            law, 10, 1, small_cfg(steps=100), 10, RNG.split("id")
        )
        assert report.variance_term == 0.0
        assert report.eps_omega == 0.0
        assert report.rhs == pytest.approx(report.lip_f * report.lip_g * report.eps_nu)

    def test_default_benchmark_smoke(self):
        report = check_generalization_inequality(
            benchmark_law("convex"), 10, 10, small_cfg(steps=100), 10, RNG.split("bm")
        )
        assert report.holds
        assert report.combined_se >= 0.0

    @pytest.mark.parametrize("radius", [1e160, 1.3e154])
    def test_radius_beyond_the_constants_range(self, radius):
        with pytest.raises(ValueError, match="bound constants overflow"):
            check_generalization_inequality(
                benchmark_law("convex"), 4, 4, small_cfg(steps=20, domain_radius=radius), 2,
                RNG.split("huge"),
            )
