import dataclasses
import hashlib
import re
import tracemalloc
import warnings

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
from scolab import optimizer, problems
from scolab.core import Rng
from scolab.optimizer import (
    BLOCK_STEPS,
    OUTPUT_MODES,
    OptimizerConfig,
    Variant,
    _draw_indices,
    _leaves_ball,
    _run_with_indices,
    run,
    schedule_preset,
)
from scolab.problems import (
    Dataset,
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
        # The run starts at y0 = g(x0) = 0, so the corrected tracker is exact.
        data = sample_dataset(identity_law(), 10, 1, RNG.split("ii"))
        cfg = OptimizerConfig(
            variant=Variant.SCSC, steps=1000, eta=0.05, beta=0.4, record_tracking=True,
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
        cfg = OptimizerConfig(variant=Variant.SCSC, steps=400, eta=eta, beta=0.5,
                              output_mode="uniform_average")
        f0 = empirical_risk(data, np.zeros(data.p))
        values = []
        for rep in range(50):
            traj = run(data, cfg, RNG.split(f"desc-{rep}"))
            values.append(empirical_risk(data, traj.final_output))
        assert np.mean(values) < f0

    @pytest.mark.blas_portable
    @pytest.mark.parametrize("beta", [0.1, 1.0])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_first_tracking_gap_is_within_d_y(self, variant, beta):
        # From x0 = y0 = 0 both variants' first tracker is beta * b_j, and
        # beta * b_j - b_bar = beta (b_j - b_bar) - (1 - beta) b_bar is no
        # longer than max(||g_j - g_bar||, ||g_bar||) at x = 0, which d_y
        # bounds.  A start of y0 = 10 * 1 would read 324 here at beta = 0.1,
        # past this d_y of 146.4; at beta = 1 the first tracker drops y0.
        data = sample_dataset(benchmark_law("convex"), 40, 40, RNG.split("dy"))
        d_y = compute_constants(data, 10.0).d_y
        cfg = OptimizerConfig(variant=variant, steps=1, eta=0.1, beta=beta,
                              record_tracking=True)
        gaps = [run(data, cfg, RNG.split(f"dyrun-{rep}")).tracking_sq_errors[0]
                for rep in range(20)]
        assert 0.0 < max(gaps) <= d_y


class TestSelectOutput:
    """Each output mode as ``run`` returns it in ``final_output``."""

    @staticmethod
    def _run(mode, steps, eta=0.01, sigma=1.0, label="out"):
        data = sample_dataset(benchmark_law("strongly_convex"), 5, 5, RNG.split(label))
        cfg = OptimizerConfig(variant=Variant.SCSC, steps=steps, eta=eta, beta=0.5,
                              output_mode=mode, sigma=sigma)
        return run(data, cfg, RNG.split(label + "run"))

    def test_single_step_all_modes_agree(self):
        outs = [self._run(mode, steps=1).final_output for mode in OUTPUT_MODES]
        for out in outs:
            np.testing.assert_array_equal(out, outs[0])

    def test_constant_trajectory(self):
        # eta = 0 never moves the parameter, so every output is the origin.
        for mode in OUTPUT_MODES:
            out = self._run(mode, steps=7, eta=0.0, sigma=0.5).final_output
            np.testing.assert_allclose(out, np.zeros(4), rtol=1e-15)

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

    def test_uniform_average_adds_in_step_order_with_one_coordinate(self):
        # numpy sums a single column pairwise; the average must still add
        # the iterates one step after another, as for any other p.
        law = PopulationLaw(a0=np.ones((2, 1)), b0=np.zeros(2), c0=np.ones(2), tau_a=0.3)
        data = sample_dataset(law, 5, 5, RNG.split("p1"))
        cfg = OptimizerConfig(variant=Variant.SCGD, steps=4096, eta=0.3, beta=0.5,
                              output_mode="uniform_average")
        traj = run(data, cfg, RNG.split("p1run"))
        total = 0.0
        for (value,) in traj.iterates.tolist():
            total += value
        assert traj.uniform_avg.tolist() == [total / cfg.steps]

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
# last iterate is stored off the stride.  The kernel runs and checks
# blocks of 256 steps, so the rows with T >= 4097 cross at least 16 block
# boundaries: T = 4097 and T = 8193 end in a one-step block, T = 5000 in a
# 136-step one and T = 12000 in a 224-step one, and its uniform draw is
# step 7980, inside the 32nd block.  The R = 0.3 rows project on every
# step, so their first block is replayed and every later step runs the
# per-step test.
# Every run starts at the origin.  A row may add beta to the default 0.3:
# those rows pin SCSC at beta = 1, which runs the SCGD recurrence, in one
# block and across 17.  Two rows pin eta = 0.
# A kernel change that moves any bit of any field shows here.
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
    (Variant.SCGD, "sigma_weighted", True, 8193, 0.05, 10.0, "37846f9b1bfa814f"),
    (Variant.SCGD, "uniform_average", True, 8193, 0.05, 10.0, "b0f9812cd934ff74"),
    (Variant.SCSC, "sigma_weighted", True, 8193, 0.05, 10.0, "81680633cf24667c"),
    (Variant.SCSC, "uniform_average", True, 8193, 0.05, 10.0, "f57edcf1983a1aaa"),
    (Variant.SCGD, "uniform_random", False, 12000, 0.05, 10.0, "9f0912f9821e86bd"),
    (Variant.SCSC, "uniform_random", True, 12000, 0.05, 10.0, "7b8458180f76de3c"),
    (Variant.SCGD, "sigma_weighted", True, 8193, 0.5, 0.3, "298722f78156da75"),
    (Variant.SCSC, "last", False, 8193, 0.5, 0.3, "6952a1144374408e"),
    (Variant.SCSC, "last", False, 33, 0.05, 10.0, "08cba03816ce69ba", 1.0),
    (Variant.SCSC, "uniform_average", True, 4097, 0.05, 10.0, "33e9e86c309f00b0", 1.0),
    (Variant.SCSC, "sigma_weighted", True, 33, 0.0, 10.0, "ec559bf5e2a76474"),
    (Variant.SCGD, "uniform_average", False, 33, 0.0, 10.0, "ea6ce18df86c5664"),
]
PIN_BETA = 0.3
FULL_PINS = [row if len(row) == 8 else row + (PIN_BETA,) for row in KERNEL_PINS]


def _pin_id(variant, mode, tracking, steps, eta, radius, beta):
    base = f"{variant.value}-{mode}-{'track' if tracking else 'notrack'}-T{steps}-R{radius}"
    extra = [f"eta{eta}"] if eta == 0 else []
    extra += [f"beta{beta}"] if beta != PIN_BETA else []
    return "-".join([base, *extra])


class TestKernelBytes:
    @pytest.mark.parametrize(
        "variant, mode, tracking, steps, eta, radius, digest, beta",
        FULL_PINS,
        ids=[_pin_id(*row[:6], row[7]) for row in FULL_PINS],
    )
    def test_trajectory_bytes_pinned(self, variant, mode, tracking, steps, eta, radius, digest,
                                     beta):
        data = sample_dataset(benchmark_law("convex"), 6, 7, RNG.split("pin"))
        cfg = OptimizerConfig(
            variant=variant, steps=steps, eta=eta, beta=beta, domain_radius=radius,
            output_mode=mode, sigma=1.0, record_tracking=tracking,
        )
        traj = run(data, cfg, RNG.split(f"pinrun-{steps}"))
        on_sphere = np.linalg.norm(traj.iterates, axis=1) >= radius * (1 - 1e-12)
        if radius < 1.0:
            assert np.any(on_sphere[traj.stored_steps <= 4096])
            if steps > 4096:
                assert np.any(on_sphere[traj.stored_steps > 4096])
        if steps > 4096:
            stride = -(-steps // 4096)
            assert traj.stored_steps[1] == 2 * stride
            assert traj.stored_steps[-1] == steps
        assert trajectory_digest(traj) == digest

    @staticmethod
    def _fields(traj):
        return {
            f.name: getattr(traj, f.name)
            for f in dataclasses.fields(traj)
            if getattr(traj, f.name) is not None
        }

    @pytest.mark.parametrize("mode", OUTPUT_MODES)
    def test_fields_share_no_memory(self, mode):
        data = sample_dataset(benchmark_law("convex"), 6, 7, RNG.split("pin"))
        cfg = OptimizerConfig(variant=Variant.SCSC, steps=8193, eta=0.05, beta=0.3,
                              output_mode=mode, sigma=1.0, record_tracking=True)
        fields = self._fields(run(data, cfg, RNG.split("pinrun-8193")))
        names = list(fields)
        for k, a in enumerate(names):
            for b in names[k + 1:]:
                assert not np.shares_memory(fields[a], fields[b]), (a, b)

    def test_second_run_leaves_first_run_unchanged(self):
        data = sample_dataset(benchmark_law("convex"), 6, 7, RNG.split("pin"))
        cfg = OptimizerConfig(variant=Variant.SCSC, steps=8193, eta=0.05, beta=0.3,
                              output_mode="uniform_random", record_tracking=True)
        first = run(data, cfg, RNG.split("pinrun-8193"))
        before = {name: value.copy() for name, value in self._fields(first).items()}
        digest = trajectory_digest(first)
        run(data, cfg, RNG.split("another-run"))
        run(data, dataclasses.replace(cfg, steps=5), RNG.split("a-short-run"))
        for name, value in self._fields(first).items():
            np.testing.assert_array_equal(value, before[name])
        assert trajectory_digest(first) == digest


class TestKernelMemory:
    def test_working_memory_does_not_grow_with_steps(self):
        # Without tracking, everything the kernel allocates is O(block): a
        # kernel that converts or stores per-step data for the whole run
        # (1.6 MB of index lists alone at this T) fails.
        data = sample_dataset(benchmark_law("convex"), 6, 7, RNG.split("mem"))
        cfg = OptimizerConfig(variant=Variant.SCGD, steps=100_000, eta=0.05, beta=0.3)
        indices = _draw_indices(data, cfg, RNG.split("memrun"))
        tracemalloc.start()
        try:
            _run_with_indices(data, cfg, *indices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def _first_fire_cases():
    """(first projected step, T): early steps of the first block (1, 8 and
    9; the ids of 8 and 9 name the short first segment the loop once had), a
    block's first, middle and last step, and a step in a final partial block."""
    block = BLOCK_STEPS
    steps = 2 * block + 88
    firsts = {
        "run-step-1": 1,
        "probe-last": 8,
        "after-probe": 9,
        "block-2-step-1": block + 1,
        "block-2-mid": block + block // 2,
        "block-2-last": 2 * block,
        "partial-block": 2 * block + 40,
    }
    return [pytest.param(first, steps, id=name) for name, first in firsts.items()]


class TestBlockCheck:
    """The loop's unit of work is the block: an unprojected run checks each
    block's iterates once and never replays or projects."""

    @pytest.mark.parametrize("variant", [Variant.SCGD, Variant.SCSC])
    @pytest.mark.parametrize("steps", [1, 8, 9, BLOCK_STEPS, BLOCK_STEPS + 1, 4097])
    def test_one_ball_check_per_block(self, monkeypatch, steps, variant):
        calls = {"_leaves_ball": 0, "project_ball": 0}

        def counted(name):
            inner = getattr(optimizer, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(optimizer, name, counted(name))
        data = sample_dataset(benchmark_law("convex"), 6, 7, RNG.split("blocks"))
        cfg = OptimizerConfig(variant=variant, steps=steps, eta=0.05, beta=0.3)
        run(data, cfg, RNG.split("blocks-run"))
        assert calls == {"_leaves_ball": -(-steps // BLOCK_STEPS), "project_ball": 0}


@pytest.mark.blas_portable
class TestSegmentReplay:
    """A run whose ball projection first fires at a chosen step, replayed
    step by step through the scalar reference, bit for bit.

    From x = y = 0, inner sample 0 (a = 0, b = 0) leaves both at 0, and
    sample 1 throws x just outside the ball: the first step that draws it
    is the first projected step.  Sample 2 then pulls x back inside, so
    that only that step's iterate leaves the ball even when it is computed
    without the projection.  Sample 1 fires once more near the end.  With
    d = 1 every product is a single multiply or one ddot, so the
    reference's ``@`` and the kernel's ``dot`` agree to the bit."""

    DATA = Dataset(
        inner_a=np.array([[[0.0, 0.0, 0.0]], [[0.36, 0.36, 0.36]], [[-0.12, -0.12, -0.12]]]),
        inner_b=np.zeros((3, 1)),
        outer_c=np.array([[-1.0]]),
    )

    @staticmethod
    def _indices(first, steps):
        j_idx = np.zeros(steps, dtype=np.int64)
        j_idx[[first - 1, steps - 5]] = 1
        j_idx[first] = 2
        return j_idx, np.zeros(steps, dtype=np.int64)

    def _reference(self, cfg, j_idx, i_idx):
        """Iterates, pre-step tracking gaps and the uniform average."""
        data = self.DATA
        x = np.zeros(data.p)
        x_prev = x
        y = np.zeros(data.d)
        xs, gaps = [], []
        total = np.zeros(data.p)
        for j, i in zip(j_idx, i_idx):
            a, b, c = data.inner_a[j], data.inner_b[j], data.outer_c[i]
            y = tracking_step(cfg.variant, y, inner_eval(a, b, x), inner_eval(a, b, x_prev), cfg.beta)
            gap = y - (data.a_bar @ x + data.b_bar)
            gaps.append(gap @ gap)
            x_prev = x
            x = param_step(x, inner_jac(a, x), outer_grad(c, y), cfg.eta, cfg.domain_radius)
            xs.append(x)
            total = total + x
        return np.array(xs), np.array(gaps), total / cfg.steps

    @pytest.mark.parametrize("tracking", [False, True], ids=["notrack", "track"])
    @pytest.mark.parametrize("variant", [Variant.SCGD, Variant.SCSC])
    @pytest.mark.parametrize("first, steps", _first_fire_cases())
    def test_matches_scalar_reference_bit_for_bit(self, first, steps, variant, tracking):
        cfg = OptimizerConfig(variant=variant, steps=steps, eta=0.5, beta=0.3, domain_radius=0.3,
                              output_mode="uniform_average", record_tracking=tracking)
        j_idx, i_idx = self._indices(first, steps)
        traj = _run_with_indices(self.DATA, cfg, j_idx, i_idx, None)
        xs, gaps, uniform_avg = self._reference(cfg, j_idx, i_idx)
        on_sphere = np.linalg.norm(xs, axis=1) >= 0.3 * (1 - 1e-12)
        assert np.flatnonzero(on_sphere)[:2].tolist() == [first - 1, steps - 5]
        assert traj.iterates.tobytes() == xs.tobytes()
        assert traj.uniform_avg.tobytes() == uniform_avg.tobytes()
        if tracking:
            assert traj.tracking_sq_errors.tobytes() == gaps.tobytes()

    @staticmethod
    def _invalid_at(variant, first, steps):
        """A dataset, eta and inner indices whose run, from the origin, makes
        its first invalid operation at step ``first``.

        SCGD (eta = 0, so x stays at 0): inner sample 0 (a = 0) and sample 1
        (a = 1e308) both have b = 10, so y > 1 and r = y - c > 1 from step 1
        on; at step ``first`` sample 1 makes eta * (r @ a) the product 0 * inf.
        SCSC (eta = 1, c = -1): step 1 draws sample 2 (a = (1, 1)), which
        moves x to (-1, -1); sample 0 (a = 0) then holds x and y still.  At
        step ``first`` sample 1 overflows both g = a @ x and g_prev = a @ x_prev
        to -inf, and the tracker correction g - g_prev is inf - inf.  That
        needs first >= 3: at step 2, x_prev is still the origin."""
        j_idx = np.zeros(steps, dtype=np.int64)
        if variant is Variant.SCGD:
            data = Dataset(inner_a=np.array([[[0.0, 0.0]], [[1e308, 1e308]]]),
                           inner_b=np.full((2, 1), 10.0), outer_c=np.zeros((1, 1)))
            eta = 0.0
        else:
            data = Dataset(inner_a=np.array([[[0.0, 0.0]], [[1e308, 1e308]], [[1.0, 1.0]]]),
                           inner_b=np.zeros((3, 1)), outer_c=np.full((1, 1), -1.0))
            eta = 1.0
            j_idx[0] = 2
        j_idx[first - 1] = 1
        return data, eta, j_idx

    @pytest.mark.parametrize("variant, op, earliest",
                             [(Variant.SCGD, "multiply", 1), (Variant.SCSC, "subtract", 3)])
    @pytest.mark.parametrize("first", [None, 300, BLOCK_STEPS, 2 * BLOCK_STEPS],
                             ids=["earliest", "step-300", "block-1-last", "block-2-last"])
    def test_invalid_operation_warns_once_at_its_step(self, first, variant, op, earliest):
        # The run's first invalid operation, at the earliest step its recipe
        # allows or past the run's first steps; every later step is NaN.  A
        # per-step loop warns there once; the unchecked pass must neither
        # hide nor repeat it.
        first = first or earliest
        steps = 2 * BLOCK_STEPS + 88
        data, eta, j_idx = self._invalid_at(variant, first, steps)
        cfg = OptimizerConfig(variant=variant, steps=steps, eta=eta, beta=0.5,
                              output_mode="uniform_average")
        i_idx = np.zeros(steps, dtype=np.int64)

        # The scalar reference, one step at a time, noting where it warns.
        # Like the kernel, it ignores overflow; the ball never binds.
        x = x_prev = np.zeros(2)
        y = np.zeros(1)
        xs, warned_at = [], []
        total = np.zeros(2)
        for t, j in enumerate(j_idx.tolist(), start=1):
            a, b, c = data.inner_a[j], data.inner_b[j], data.outer_c[0]
            with warnings.catch_warnings(record=True) as seen, np.errstate(over="ignore"):
                warnings.simplefilter("always")
                y = tracking_step(variant, y, inner_eval(a, b, x), inner_eval(a, b, x_prev), cfg.beta)
                x_prev = x
                x = x - cfg.eta * (inner_jac(a, x) @ outer_grad(c, y))
            warned_at += [(t, str(w.message)) for w in seen]
            xs.append(x)
            total = total + x
        assert warned_at == [(first, f"invalid value encountered in {op}")]

        with pytest.warns(RuntimeWarning) as caught:
            traj = _run_with_indices(data, cfg, j_idx, i_idx, None)
        assert [str(w.message) for w in caught] == [f"invalid value encountered in {op}"]
        assert np.flatnonzero(np.isnan(traj.iterates).any(axis=1))[0] == first - 1
        assert traj.iterates.tobytes() == np.array(xs).tobytes()
        assert traj.uniform_avg.tobytes() == (total / steps).tobytes()


@pytest.mark.blas_portable
class TestStackedMatmulMatchesDot:
    """The kernel derives per-step products after each block with stacked
    ``np.matmul``; its outputs equal a per-step loop's only while each
    stacked row reaches the same BLAS call as ``ndarray.dot``."""

    @pytest.mark.parametrize("shape", [(4, 5), (5, 4), (8, 8)])
    def test_rows_match_dot_bit_for_bit(self, shape):
        gen = np.random.default_rng(sum(shape))
        rows, cols = shape
        for _ in range(200):
            a = gen.standard_normal(shape) * gen.uniform(0.1, 10.0)
            xs = gen.standard_normal((9, cols))
            vs = gen.standard_normal((9, rows))
            a_x = np.matmul(a, xs[:, :, None])[:, :, 0]
            v_a = np.matmul(vs[:, None, :], a)[:, 0, :]
            v_v = np.matmul(vs[:, None, :], vs[:, :, None])[:, 0, 0]
            for t in range(9):
                assert a_x[t].tobytes() == a.dot(xs[t]).tobytes()
                assert v_a[t].tobytes() == vs[t].dot(a).tobytes()
                assert v_v[t].tobytes() == vs[t].dot(vs[t]).tobytes()

    @pytest.mark.parametrize("p", [1, 2, 4, 5, 8])
    def test_ball_check_matches_per_step_pre_test(self, p):
        # The radius is the largest row's norm or an ulp to either side, so
        # the check and the pre-test agree only if their norms agree to the bit.
        gen = np.random.default_rng(p)
        for _ in range(200):
            xs = gen.standard_normal((9, p)) * gen.uniform(0.1, 10.0)
            sq = [x.dot(x) for x in xs]
            top = max(sq)
            for radius_sq in (top, np.nextafter(top, 0.0), np.nextafter(top, np.inf)):
                assert _leaves_ball(xs, radius_sq) == any(s > radius_sq for s in sq)

    def test_ball_check_fails_on_a_nan_row(self):
        # NaN > R^2 is false, but a NaN iterate must still send the block
        # to the checked replay, which warns or raises where it arose.
        xs = np.array([[0.0, 0.0], [np.nan, 0.0], [0.5, 0.0]])
        assert _leaves_ball(xs, 1.0)
        assert not _leaves_ball(xs[[0, 2]], 1.0)


@pytest.mark.blas_portable
class TestDotOutMatchesDot:
    """The step loop writes its products into per-run buffers with
    ``ndarray.dot(..., out)``; its outputs equal the allocating loop's only
    while both forms reach the same BLAS call."""

    @pytest.mark.parametrize("shape", [(4, 5), (5, 4), (8, 8), (1, 3), (3, 1)])
    def test_out_matches_allocating_dot_bit_for_bit(self, shape):
        gen = np.random.default_rng(sum(shape))
        rows, cols = shape
        a_x = np.empty(2 * rows)[rows:]  # like the loop's g, the back half of a buffer
        v_a = np.empty(cols)
        for _ in range(200):
            a = gen.standard_normal(shape) * gen.uniform(0.1, 10.0)
            x = gen.standard_normal(cols)
            v = gen.standard_normal(rows)
            a.dot(x, a_x)
            v.dot(a, v_a)
            assert a_x.tobytes() == a.dot(x).tobytes()
            assert v_a.tobytes() == v.dot(a).tobytes()


@pytest.mark.blas_portable
class TestScscTrackerIdentity:
    """With every inner matrix equal (``tau_a = 0``), SCSC's correction
    g_j(x) - g_j(x_prev) is the increment of the mean map, so the tracker
    error e_t = y_t - g_bar(x_t) obeys e_t = (1 - beta) e_{t-1} + beta (b_j - b_bar)
    whatever eta is and whatever path x takes.  From x0 = y0 = 0 its
    expected square at index t (after t + 1 updates) is therefore
    (1-beta)^{2(t+1)} ||b_bar||^2 + beta v (1 - (1-beta)^{2(t+1)}) / (2 - beta),
    with v the mean of ||b_j - b_bar||^2.  No output is pinned, so this
    holds on every BLAS core."""

    @staticmethod
    def dataset(name):
        law = dataclasses.replace(benchmark_law(name), tau_a=0.0)
        return sample_dataset(law, 20, 30, RNG.split(f"scsc-identity-{name}"))

    @pytest.mark.parametrize("name", ["convex", "strongly_convex"])
    def test_tracker_error_does_not_depend_on_the_path(self, name):
        data = self.dataset(name)
        for rep in range(20):
            rng = RNG.split(f"scsc-path-{name}-{rep}")
            free, pinned = (
                run(data, OptimizerConfig(Variant.SCSC, 500, eta, 0.1, domain_radius=radius,
                                          record_tracking=True), rng)
                for eta, radius in ((1e-3, 10.0), (0.5, 0.05))
            )
            assert np.linalg.norm(pinned.iterates, axis=1).max() >= 0.05 * (1 - 1e-12)
            np.testing.assert_allclose(
                free.tracking_sq_errors, pinned.tracking_sq_errors, rtol=1e-9, atol=0.0
            )

    @pytest.mark.parametrize("name", ["convex", "strongly_convex"])
    @pytest.mark.parametrize("eta, beta", [(1e-3, 0.1), (0.05, 0.01)])
    def test_mean_square_matches_the_closed_form(self, name, eta, beta):
        data = self.dataset(name)
        cfg = OptimizerConfig(Variant.SCSC, 500, eta, beta, record_tracking=True)
        ts = np.array([0, 9, 99, 499])
        errors = np.array([
            run(data, cfg, RNG.split(f"scsc-mean-{name}-{eta}-{rep}")).tracking_sq_errors[ts]
            for rep in range(200)
        ])
        decay = (1 - beta) ** (2 * (ts + 1))
        v = float(np.mean(np.sum((data.inner_b - data.b_bar) ** 2, axis=1)))
        exact = decay * float(data.b_bar @ data.b_bar) + beta * v * (1 - decay) / (2 - beta)
        se = errors.std(axis=0, ddof=1) / np.sqrt(len(errors))
        assert np.all(np.abs(errors.mean(axis=0) - exact) <= 4 * se)


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

    @pytest.mark.parametrize("t_max", [0, -3])
    def test_cap_below_one_rejected(self, t_max):
        # T = t_max would divide by zero at 0 and give complex step sizes below.
        with pytest.raises(ValueError, match="t_max must be >= 1"):
            schedule_preset(Variant.SCGD, "convex", 8, 8, t_max=t_max)

    @pytest.mark.parametrize("convexity, n, m, message", [
        ("wavy", 8, 8, "unknown convexity 'wavy'"),
        ("convex", 0, 8, "n and m must be >= 1"),
        ("convex", 8, 0, "n and m must be >= 1"),
    ])
    def test_bad_arguments_rejected(self, convexity, n, m, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            schedule_preset(Variant.SCGD, convexity, n, m)

    @pytest.mark.parametrize("n", [10**89, 10**400], ids=["1e89", "1e400"])
    def test_horizon_beyond_the_float_range(self, n):
        # n ** 3.5 overflows (or float(n) does): the cap is the horizon, and
        # without one the error names n and m.
        message = (f"the preset horizon max(n, m) ** 3.5 is beyond the float range "
                   f"at n={n}, m=1; cap it with t_max")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            schedule_preset(Variant.SCGD, "convex", n, 1)
        capped = schedule_preset(Variant.SCGD, "convex", n, 1, t_max=5)
        assert capped == schedule_preset(Variant.SCGD, "convex", 2, 2, t_max=5)
        assert capped[0] == 5

    def test_scsc_needs_fewer_iterations_in_convex_regime(self):
        for size in range(2, 101):
            scgd = schedule_preset(Variant.SCGD, "convex", size, size)[0]
            scsc = schedule_preset(Variant.SCSC, "convex", size, size)[0]
            assert scsc < scgd

    def test_desk_scale_examples(self):
        assert schedule_preset(Variant.SCSC, "convex", 20, 20)[0] == 1789
        assert schedule_preset(Variant.SCGD, "convex", 20, 20)[0] == 35778


@pytest.mark.blas_portable
class TestVariantLabel:
    """The enum is the one parser of a variant: its value string gives the
    enum, and any other value is rejected wherever a variant is read."""

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_value_string_runs_the_enum_variant(self, variant):
        data = sample_dataset(benchmark_law("convex"), 6, 6, RNG.split("label"))
        by_enum, by_value = (
            OptimizerConfig(variant=v, steps=40, eta=0.05, beta=0.3, record_tracking=True)
            for v in (variant, variant.value)
        )
        assert by_value.variant is variant
        assert by_value == by_enum
        assert (trajectory_digest(run(data, by_value, RNG.split("labelrun")))
                == trajectory_digest(run(data, by_enum, RNG.split("labelrun"))))

    @pytest.mark.parametrize("bogus", ["bogus", "SCSC", None])
    def test_unknown_variant_rejected(self, bogus):
        with pytest.raises(ValueError, match="is not a valid Variant"):
            OptimizerConfig(variant=bogus, steps=1, eta=0.1, beta=0.5)
        with pytest.raises(ValueError, match="is not a valid Variant"):
            schedule_preset(bogus, "convex", 4, 4)

    @pytest.mark.parametrize("convexity", ["convex", "strongly_convex"])
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_schedule_preset_takes_the_value_string(self, variant, convexity):
        assert (schedule_preset(variant.value, convexity, 20, 30, t_max=10**6)
                == schedule_preset(variant, convexity, 20, 30, t_max=10**6))

    def test_a_benchmark_law_is_not_a_preset_regime(self, monkeypatch):
        # The presets name their own regimes; a new benchmark law named
        # otherwise does not become one.
        monkeypatch.setitem(problems._BENCHMARKS, "wavy", problems._BENCHMARKS["convex"])
        with pytest.raises(ValueError, match="^unknown convexity 'wavy'$"):
            schedule_preset(Variant.SCGD, "wavy", 4, 4)


class TestConfigValidation:
    def test_bad_steps(self):
        with pytest.raises(ValueError, match="steps"):
            OptimizerConfig(variant=Variant.SCGD, steps=0, eta=0.1, beta=0.5)

    def test_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            OptimizerConfig(variant=Variant.SCGD, steps=1, eta=0.1, beta=0.0)

    @pytest.mark.parametrize("field, message", [
        ({"eta": -0.1}, "eta must be a finite nonnegative real"),
        ({"eta": np.inf}, "eta must be a finite nonnegative real"),
        ({"domain_radius": 0.0}, "invalid domain"),
        ({"domain_radius": np.inf}, "invalid domain"),
        ({"output_mode": "best"}, "unknown output mode 'best'"),
    ])
    def test_bad_field_rejected(self, field, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OptimizerConfig(**{"variant": Variant.SCGD, "steps": 1, "eta": 0.1, "beta": 0.5,
                               **field})

    def test_unstable_sigma_weights(self):
        with pytest.raises(ValueError, match="unstable weights"):
            OptimizerConfig(
                variant=Variant.SCGD, steps=1, eta=1.0, beta=0.5,
                output_mode="sigma_weighted", sigma=2.0,
            )

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_infinite_sigma_rejected(self, eta):
        # inf * 0 is NaN, which passes the stability test; the run's
        # sigma_weighted output would then be NaN throughout.
        with pytest.raises(ValueError, match=r"^sigma_weighted output needs a finite sigma > 0$"):
            OptimizerConfig(variant=Variant.SCGD, steps=1, eta=eta, beta=0.5,
                            output_mode="sigma_weighted", sigma=np.inf)

    @pytest.mark.parametrize("name", ["x0", "y0"])
    def test_start_points_are_not_settings(self, name):
        # Every run starts at the origin, the start the bound constants assume.
        with pytest.raises(TypeError, match=name):
            OptimizerConfig(variant=Variant.SCGD, steps=1, eta=0.1, beta=0.5,
                            **{name: np.zeros(2)})

    def test_uniform_random_mode_records_draw(self):
        data = sample_dataset(benchmark_law("convex"), 4, 4, RNG.split("ur"))
        cfg = OptimizerConfig(variant=Variant.SCGD, steps=30, eta=1e-2, beta=0.5,
                              output_mode="uniform_random")
        traj = run(data, cfg, RNG.split("urrun"))
        assert traj.stored_steps.shape[0] == cfg.steps
        assert any(np.array_equal(traj.final_output, it) for it in traj.iterates)
