import dataclasses
import hashlib

import numpy as np
import pytest

from scalar_reference import (
    drawn_indices,
    inner_eval,
    inner_jac,
    outer_grad,
    param_step,
    tracking_step,
)
from scolab.core import Rng
from scolab.optimizer import OUTPUT_MODES, OptimizerConfig, Variant, run, schedule_preset
from scolab.problems import (
    PopulationLaw,
    benchmark_law,
    compute_constants,
    empirical_risk,
    sample_dataset,
)

RNG = Rng(202)


def identity_law(p=3):
    return PopulationLaw(a0=np.eye(p), b0=np.zeros(p), c0=np.ones(p), tau_c=0.4)


class TestTrackingStep:
    def test_scgd_convex_combination(self):
        out = tracking_step(Variant.SCGD, [1.0, 0.0], [0.0, 1.0], None, 0.5)
        np.testing.assert_array_equal(out, [0.5, 0.5])

    def test_scsc_correction(self):
        out = tracking_step(Variant.SCSC, [1.0, 0.0], [0.0, 1.0], [1.0, 0.0], 0.5)
        np.testing.assert_array_equal(out, [0.0, 1.0])

    @pytest.mark.parametrize("variant", [Variant.SCGD, Variant.SCSC])
    def test_beta_one_returns_current_value(self, variant):
        g_cur = np.array([0.3, -0.7])
        out = tracking_step(variant, [5.0, 5.0], g_cur, [9.0, 9.0], 1.0)
        np.testing.assert_array_equal(out, g_cur)

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta"):
            tracking_step(Variant.SCGD, [0.0], [0.0], [0.0], beta)


class TestParamStep:
    def test_basic_step(self):
        out = param_step([1.0, 1.0], np.eye(2), [0.2, 0.0], 0.1, 10.0)
        np.testing.assert_allclose(out, [0.98, 1.0])

    def test_zero_gradient_keeps_point(self):
        out = param_step([1.0, -2.0], np.eye(2), [0.0, 0.0], 0.1, 10.0)
        np.testing.assert_array_equal(out, [1.0, -2.0])

    def test_projection_clips_to_radius(self):
        out = param_step([1.0, 0.0], np.eye(2), [-100.0, 0.0], 1.0, 2.0)
        assert np.linalg.norm(out) == pytest.approx(2.0, abs=1e-12)

    def test_eta_zero_keeps_point(self):
        # run() accepts eta = 0 as a no-movement run; the reference agrees.
        out = param_step([0.5], np.eye(1), [1.0], 0.0, 1.0)
        np.testing.assert_array_equal(out, [0.5])


class TestRun:
    def test_identity_inner_scsc_tracks_exactly(self):
        data = sample_dataset(identity_law(), 10, 1, RNG.split("ii"))
        x0 = np.full(3, 0.5)
        cfg = OptimizerConfig(
            variant=Variant.SCSC, steps=1000, eta=0.05, beta=0.4,
            x0=x0, y0=x0, record_tracking=True,
        )
        traj = run(data, cfg, RNG.split("iirun"))
        assert np.sqrt(traj.tracking_sq_errors.max()) <= 1e-12

    def test_beta_one_makes_variants_identical(self):
        data = sample_dataset(benchmark_law("convex"), 12, 12, RNG.split("b1"))
        runs = []
        for variant in (Variant.SCGD, Variant.SCSC):
            cfg = OptimizerConfig(variant=variant, steps=300, eta=1e-3, beta=1.0)
            runs.append(run(data, cfg, RNG.split("b1run")))
        a, b = runs
        assert np.array_equal(a.iterates, b.iterates)
        assert np.array_equal(a.last, b.last)
        assert np.array_equal(a.uniform_avg, b.uniform_avg)

    def test_deterministic_given_stream(self):
        data = sample_dataset(benchmark_law("convex"), 10, 10, RNG.split("det"))
        cfg = OptimizerConfig(
            variant=Variant.SCSC, steps=200, eta=1e-2, beta=0.2,
            record_tracking=True,
        )
        a = run(data, cfg, RNG.split("detrun"))
        b = run(data, cfg, RNG.split("detrun"))
        assert np.array_equal(a.last, b.last)
        assert np.array_equal(a.iterates, b.iterates)
        assert np.array_equal(a.tracking_sq_errors, b.tracking_sq_errors)

    def test_iterates_stay_feasible(self):
        data = sample_dataset(benchmark_law("convex"), 10, 10, RNG.split("feas"))
        cfg = OptimizerConfig(variant=Variant.SCGD, steps=500, eta=0.5, beta=0.5,
                              domain_radius=1.5)
        traj = run(data, cfg, RNG.split("feasrun"))
        norms = np.linalg.norm(traj.iterates, axis=1)
        assert np.all(norms <= 1.5 + 1e-12)

    def test_iterates_stay_feasible_when_radius_squared_overflows(self):
        # ||x||^2 and R^2 both overflow here; the projection must still fire.
        data = sample_dataset(benchmark_law("convex"), 10, 10, RNG.split("feas"))
        cfg = OptimizerConfig(variant=Variant.SCGD, steps=20, eta=1e100, beta=0.5,
                              domain_radius=1e200)
        traj = run(data, cfg, RNG.split("feasrun"))
        norms = np.linalg.norm(traj.iterates / 1e200, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        assert np.any(norms >= 1.0 - 1e-12)

    @staticmethod
    def _replay(variant, eta, radius):
        """Run, replay its indices through the scalar reference, and
        return how many reference steps ended on the sphere."""
        data = sample_dataset(benchmark_law("convex"), 6, 7, RNG.split("man"))
        cfg = OptimizerConfig(variant=variant, steps=40, eta=eta, beta=0.3,
                              domain_radius=radius)
        traj = run(data, cfg, RNG.split("manrun"))
        j_idx, i_idx = drawn_indices(data, cfg.steps, RNG.split("manrun"))
        x = np.zeros(data.p)
        x_prev = x
        y = np.zeros(data.d)
        on_sphere = 0
        for t in range(cfg.steps):
            a, b, c = data.inner_a[j_idx[t]], data.inner_b[j_idx[t]], data.outer_c[i_idx[t]]
            g_cur = inner_eval(a, b, x)
            g_prev = inner_eval(a, b, x_prev)
            y = tracking_step(cfg.variant, y, g_cur, g_prev, cfg.beta)
            grad = outer_grad(c, y)
            x_prev = x
            x = param_step(x, inner_jac(a, x), grad, cfg.eta, cfg.domain_radius)
            on_sphere += np.linalg.norm(x) > radius * (1 - 1e-12)
        np.testing.assert_allclose(traj.last, x, rtol=1e-14, atol=1e-14)
        return on_sphere

    def test_matches_manual_composition(self):
        for variant in (Variant.SCGD, Variant.SCSC):
            assert self._replay(variant, eta=0.01, radius=10.0) == 0

    @pytest.mark.parametrize("variant", [Variant.SCGD, Variant.SCSC])
    def test_matches_manual_composition_with_projection(self, variant):
        assert self._replay(variant, eta=0.5, radius=0.3) > 0

    def test_thinning_lengths(self):
        data = sample_dataset(benchmark_law("convex"), 4, 4, RNG.split("thin"))
        cfg = OptimizerConfig(variant=Variant.SCGD, steps=10_000, eta=1e-3, beta=0.5)
        traj = run(data, cfg, RNG.split("thinrun"))
        assert traj.stored_steps.shape[0] <= 4096
        assert traj.stored_steps[-1] == 10_000
        assert traj.iterates.shape == (traj.stored_steps.shape[0], data.p)
        assert traj.stored_steps.shape[0] < cfg.steps

    def test_tracking_error_length(self):
        data = sample_dataset(benchmark_law("convex"), 4, 4, RNG.split("tl"))
        cfg = OptimizerConfig(variant=Variant.SCGD, steps=123, eta=1e-3, beta=0.5,
                              record_tracking=True)
        traj = run(data, cfg, RNG.split("tlrun"))
        assert traj.tracking_sq_errors.shape == (123,)

    def test_descent_in_expectation(self):
        data = sample_dataset(benchmark_law("strongly_convex"), 20, 20, RNG.split("desc"))
        params = compute_constants(data, 10.0)
        eta = 1.0 / (2.0 * params.smooth_l)
        x0 = np.full(data.p, 1.5)
        cfg = OptimizerConfig(variant=Variant.SCSC, steps=400, eta=eta, beta=0.5,
                              x0=x0, output_mode="uniform_average")
        f0 = empirical_risk(data, x0)
        values = []
        for rep in range(50):
            traj = run(data, cfg, RNG.split(f"desc-{rep}"))
            values.append(empirical_risk(data, traj.final_output))
        assert np.mean(values) < f0


class TestSelectOutput:
    """Each output mode as ``run`` returns it in ``final_output``."""

    @staticmethod
    def _run(mode, steps, eta=0.01, sigma=1.0, x0=None, label="out"):
        data = sample_dataset(benchmark_law("strongly_convex"), 5, 5, RNG.split(label))
        cfg = OptimizerConfig(variant=Variant.SCSC, steps=steps, eta=eta, beta=0.5, x0=x0,
                              output_mode=mode, sigma=sigma)
        return run(data, cfg, RNG.split(label + "run"))

    def test_single_step_all_modes_agree(self):
        outs = [self._run(mode, steps=1).final_output for mode in OUTPUT_MODES]
        for out in outs:
            np.testing.assert_array_equal(out, outs[0])

    def test_constant_trajectory(self):
        # eta = 0 never moves the parameter, so every output is x0.
        x0 = np.array([0.1, -0.7, 0.3, 1.0])
        for mode in OUTPUT_MODES:
            out = self._run(mode, steps=7, eta=0.0, sigma=0.5, x0=x0).final_output
            np.testing.assert_allclose(out, x0, rtol=1e-15)

    def test_sigma_weights_hand_value(self):
        # sigma * eta = 1 gives rho = 1/2: weight 0.5 on x_1 and 1.0 on x_2.
        traj = self._run("sigma_weighted", steps=2, eta=1.0, sigma=1.0)
        x1, x2 = traj.iterates
        np.testing.assert_allclose(traj.final_output, (0.5 * x1 + x2) / 1.5, atol=1e-15)

    def test_unstable_weights_rejected(self):
        with pytest.raises(ValueError, match="unstable weights"):
            self._run("sigma_weighted", steps=2, eta=1.0, sigma=2.0)
        # Just inside the limit the weights still decay and the output is finite.
        assert np.all(np.isfinite(self._run("sigma_weighted", steps=2, eta=1.0, sigma=1.99).final_output))

    def test_uniform_average_matches_full_iterates(self):
        traj = self._run("uniform_average", steps=50, label="ua")
        assert traj.stored_steps.shape[0] == 50
        np.testing.assert_array_equal(traj.final_output, traj.uniform_avg)
        np.testing.assert_allclose(traj.uniform_avg, traj.iterates.mean(axis=0), atol=1e-13)

    def test_streaming_sigma_average_matches_recomputation(self):
        sigma, eta = 1.2, 0.05
        traj = self._run("sigma_weighted", steps=64, eta=eta, sigma=sigma, label="sw")
        assert traj.stored_steps.shape[0] == 64
        rho = 1.0 - sigma * eta / 2.0
        acc = np.zeros(traj.iterates.shape[1])
        wsum = 0.0
        for point in traj.iterates:
            acc = rho * acc + point
            wsum = rho * wsum + 1.0
        np.testing.assert_allclose(traj.final_output, acc / wsum, rtol=1e-15, atol=0)


def trajectory_digest(traj):
    """sha256 prefix over every ``Trajectory`` field's dtype, shape and bytes."""
    h = hashlib.sha256()
    for field in dataclasses.fields(traj):
        value = getattr(traj, field.name)
        h.update(field.name.encode())
        if value is None:
            h.update(b"none")
        else:
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()[:16]


# (variant, output mode, record_tracking, steps, eta, radius) -> digest.
# The pins cover both variants, every output mode with and without
# tracking, an active projection (R = 0.3, eta = 0.5) and thinned runs:
# T = 5000 (stride 2) and T = 4097, whose stride does not divide T, so the
# last iterate is stored off the stride.  A kernel change that moves any
# bit of any field shows here.
KERNEL_PINS = [
    (Variant.SCGD, "last", False, 33, 0.05, 10.0, "96c989082a723c6d"),
    (Variant.SCGD, "last", True, 33, 0.05, 10.0, "cb1c4b9cefac982d"),
    (Variant.SCGD, "uniform_average", False, 33, 0.05, 10.0, "78c1d1434b986dc9"),
    (Variant.SCGD, "uniform_average", True, 33, 0.05, 10.0, "9225122ff3dbf996"),
    (Variant.SCGD, "sigma_weighted", False, 33, 0.05, 10.0, "abfa42df79f4c34c"),
    (Variant.SCGD, "sigma_weighted", True, 33, 0.05, 10.0, "7629065fd37618be"),
    (Variant.SCGD, "uniform_random", False, 33, 0.05, 10.0, "b5ceff3f5bf5d86d"),
    (Variant.SCGD, "uniform_random", True, 33, 0.05, 10.0, "102b21ac64e72fc6"),
    (Variant.SCSC, "last", False, 33, 0.05, 10.0, "1572fe3a68f32b2e"),
    (Variant.SCSC, "last", True, 33, 0.05, 10.0, "7d050504651c1f4e"),
    (Variant.SCSC, "uniform_average", False, 33, 0.05, 10.0, "9e27d98e0f4e91ee"),
    (Variant.SCSC, "uniform_average", True, 33, 0.05, 10.0, "97ff1d1220018003"),
    (Variant.SCSC, "sigma_weighted", False, 33, 0.05, 10.0, "af9a7002e8ea665e"),
    (Variant.SCSC, "sigma_weighted", True, 33, 0.05, 10.0, "79892d529bc44e8f"),
    (Variant.SCSC, "uniform_random", False, 33, 0.05, 10.0, "cf6ad587484a48b0"),
    (Variant.SCSC, "uniform_random", True, 33, 0.05, 10.0, "ac8a3d7875cd134b"),
    (Variant.SCGD, "sigma_weighted", True, 33, 0.5, 0.3, "96469ad2a11c94fd"),
    (Variant.SCSC, "sigma_weighted", True, 33, 0.5, 0.3, "0f1974651ca15b10"),
    (Variant.SCGD, "uniform_random", True, 5000, 0.05, 10.0, "862efd4c7768a665"),
    (Variant.SCSC, "uniform_average", True, 5000, 0.05, 10.0, "fb0305e5795adcdd"),
    (Variant.SCSC, "last", False, 4097, 0.05, 10.0, "0df42bf2ad400790"),
]


class TestKernelBytes:
    @pytest.mark.parametrize(
        "variant, mode, tracking, steps, eta, radius, digest",
        KERNEL_PINS,
        ids=[
            f"{v.value}-{mode}-{'track' if tr else 'notrack'}-T{steps}-R{radius}"
            for v, mode, tr, steps, _, radius, _ in KERNEL_PINS
        ],
    )
    def test_trajectory_bytes_pinned(self, variant, mode, tracking, steps, eta, radius, digest):
        data = sample_dataset(benchmark_law("convex"), 6, 7, RNG.split("pin"))
        cfg = OptimizerConfig(
            variant=variant, steps=steps, eta=eta, beta=0.3, domain_radius=radius,
            output_mode=mode, sigma=1.0, record_tracking=tracking,
        )
        traj = run(data, cfg, RNG.split(f"pinrun-{steps}"))
        if radius < 1.0:
            assert np.any(np.linalg.norm(traj.iterates, axis=1) >= radius * (1 - 1e-12))
        if steps > 4096:
            assert traj.stored_steps[1] == 4
            assert traj.stored_steps[-1] == steps
        assert trajectory_digest(traj) == digest


class TestSchedulePreset:
    def test_scgd_convex(self):
        steps, eta, beta = schedule_preset(Variant.SCGD, "convex", 4, 4)
        assert steps == 128
        assert eta == pytest.approx(128.0 ** (-6.0 / 7.0))
        assert beta == pytest.approx(128.0 ** (-4.0 / 7.0))

    def test_scsc_convex(self):
        steps, eta, beta = schedule_preset(Variant.SCSC, "convex", 4, 4)
        assert steps == 32
        assert eta == pytest.approx(32.0**-0.8)
        assert beta == eta

    def test_scsc_strongly_convex(self):
        steps, eta, beta = schedule_preset(Variant.SCSC, "strongly_convex", 64, 64)
        assert steps == 128
        assert eta == pytest.approx(128.0 ** (-6.0 / 7.0))
        assert beta == eta

    def test_scgd_strongly_convex_exponents(self):
        steps, eta, beta = schedule_preset(Variant.SCGD, "strongly_convex", 40, 40)
        assert steps == 468
        assert eta == pytest.approx(468.0**-0.9)
        assert beta == pytest.approx(468.0**-0.6)

    def test_uses_larger_sample_size(self):
        assert schedule_preset(Variant.SCSC, "convex", 4, 2)[0] == 32

    def test_cap_applies(self):
        steps, eta, beta = schedule_preset(Variant.SCGD, "convex", 80, 80, t_max=2_000_000)
        assert steps == 2_000_000
        assert eta == pytest.approx(2_000_000.0 ** (-6.0 / 7.0))

    def test_scsc_needs_fewer_iterations_in_convex_regime(self):
        for size in range(2, 101):
            scgd = schedule_preset(Variant.SCGD, "convex", size, size)[0]
            scsc = schedule_preset(Variant.SCSC, "convex", size, size)[0]
            assert scsc < scgd

    def test_desk_scale_examples(self):
        assert schedule_preset(Variant.SCSC, "convex", 20, 20)[0] == 1789
        assert schedule_preset(Variant.SCGD, "convex", 20, 20)[0] == 35778


class TestConfigValidation:
    def test_bad_steps(self):
        with pytest.raises(ValueError, match="steps"):
            OptimizerConfig(variant=Variant.SCGD, steps=0, eta=0.1, beta=0.5)

    def test_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            OptimizerConfig(variant=Variant.SCGD, steps=1, eta=0.1, beta=0.0)

    def test_unstable_sigma_weights(self):
        with pytest.raises(ValueError, match="unstable weights"):
            OptimizerConfig(
                variant=Variant.SCGD, steps=1, eta=1.0, beta=0.5,
                output_mode="sigma_weighted", sigma=2.0,
            )

    def test_x0_outside_domain(self):
        with pytest.raises(ValueError, match="x0"):
            OptimizerConfig(
                variant=Variant.SCGD, steps=1, eta=0.1, beta=0.5,
                domain_radius=1.0, x0=np.array([2.0, 0.0]),
            )

    def test_uniform_random_mode_records_draw(self):
        data = sample_dataset(benchmark_law("convex"), 4, 4, RNG.split("ur"))
        cfg = OptimizerConfig(variant=Variant.SCGD, steps=30, eta=1e-2, beta=0.5,
                              output_mode="uniform_random")
        traj = run(data, cfg, RNG.split("urrun"))
        assert traj.stored_steps.shape[0] == cfg.steps
        assert any(np.array_equal(traj.final_output, it) for it in traj.iterates)
