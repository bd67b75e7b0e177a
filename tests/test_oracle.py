import dataclasses
import math
import re

import numpy as np
import pytest

from scolab import oracle
from scolab.core import Rng, _norm, project_ball
from scolab.optimizer import Variant
from scolab.oracle import (
    erm_minimizer,
    fd_gradient_check,
    population_minimizer,
    tracking_bound,
)
from scolab.problems import (
    BoundParams,
    Dataset,
    PopulationLaw,
    benchmark_law,
    empirical_risk,
    empirical_risk_grad,
    population_risk,
    sample_dataset,
)

RNG = Rng(303)


def unit_params(**overrides):
    base = dict(
        lip_f=1.0,
        lip_g=1.0,
        smooth_l=1.0,
        sigma=0.0,
        var_g=1.0,
        d_y=1.0,
        free_c=1.0,
    )
    base.update(overrides)
    return BoundParams(**base)


class TestErmMinimizer:
    def test_interior_least_squares(self):
        data = Dataset(
            inner_a=np.eye(2)[None, :, :],
            inner_b=np.zeros((1, 2)),
            outer_c=np.array([[1.0, 2.0]]),
        )
        cert = erm_minimizer(data, 10.0)
        np.testing.assert_allclose(cert.x_star, [1.0, 2.0], atol=1e-12)
        assert cert.value == pytest.approx(0.0, abs=1e-20)
        assert cert.method == "closed_form"
        assert cert.kkt_residual <= 1e-9

    def test_value_is_outer_spread_at_reachable_target(self):
        data = Dataset(
            inner_a=np.eye(2)[None, :, :],
            inner_b=np.zeros((1, 2)),
            outer_c=np.array([[1.0, 2.0], [3.0, 2.0]]),
        )
        cert = erm_minimizer(data, 10.0)
        np.testing.assert_allclose(cert.x_star, [2.0, 2.0], atol=1e-12)
        assert cert.value == pytest.approx(0.5 * data.outer_spread, abs=1e-12)

    def test_projection_onto_ball(self):
        data = Dataset(
            inner_a=np.eye(2)[None, :, :],
            inner_b=np.zeros((1, 2)),
            outer_c=np.array([[2.0, 0.0]]),
        )
        cert = erm_minimizer(data, 1.0)
        np.testing.assert_allclose(cert.x_star, [1.0, 0.0], atol=1e-10)
        assert cert.method == "trust_region"
        assert cert.kkt_residual <= 1e-13

    @pytest.mark.parametrize("seed", range(10))
    def test_dominates_random_feasible_points(self, seed):
        data = sample_dataset(benchmark_law("convex"), 25, 25, RNG.split(f"dom-{seed}"))
        cert = erm_minimizer(data, 10.0)
        assert empirical_risk(data, cert.x_star) == pytest.approx(cert.value, abs=1e-10)
        gen = RNG.split(f"dompts-{seed}").generator()
        for _ in range(1000):
            x = project_ball(gen.uniform(-10.0, 10.0, size=data.p), 10.0)
            assert empirical_risk(data, x) >= cert.value - 1e-10

    def test_methods_agree_when_interior(self):
        data = sample_dataset(benchmark_law("strongly_convex"), 20, 20, RNG.split("agree"))
        closed = erm_minimizer(data, 10.0)
        iterative = erm_minimizer(data, 10.0, method="projected_gradient")
        assert closed.method == "closed_form"
        assert iterative.method == "projected_gradient_high_precision"
        assert np.linalg.norm(closed.x_star - iterative.x_star) < 1e-8

    def test_min_norm_flag_on_rank_deficient_system(self):
        data = sample_dataset(benchmark_law("convex"), 10, 10, RNG.split("mn"))
        cert = erm_minimizer(data, 10.0)
        assert cert.method == "closed_form_min_norm"
        assert cert.kkt_residual <= 1e-9

    # At these seeds the expanded form 0.5 x'Gx - rhs'x + const puts the
    # value at -2.2e-16 to -8.9e-16, below a sum of squares' floor of zero.
    @pytest.mark.parametrize("seed", [5, 12, 13, 14, 31, 39])
    def test_value_is_nonnegative_at_reachable_target(self, seed):
        data = sample_dataset(benchmark_law("convex"), 1, 1, RNG.split(f"nonneg-{seed}"))
        cert = erm_minimizer(data, 10.0)
        assert cert.method == "closed_form_min_norm"
        assert cert.value >= 0.0
        assert cert.value == empirical_risk(data, cert.x_star)

    @pytest.mark.parametrize("method", ["closed_form", "newton"])
    def test_unknown_method_rejected(self, method):
        data = sample_dataset(benchmark_law("convex"), 4, 4, RNG.split("um"))
        with pytest.raises(ValueError, match="unknown solve method"):
            erm_minimizer(data, 1.0, method=method)

    def test_minimizer_inside_a_tiny_ball(self):
        # At R = 1e-200 every square underflows; the certified point must
        # still lie in the ball by an exact (rescaled) norm, on its sphere.
        data = sample_dataset(benchmark_law("convex"), 40, 40, RNG.split("tiny"))
        for cert in (erm_minimizer(data, 1e-200), population_minimizer(benchmark_law("convex"), 1e-200)):
            assert cert.method == "trust_region"
            assert 1e-200 * (1 - 1e-12) <= _norm(cert.x_star) <= 1e-200

    @pytest.mark.parametrize("radius", [1e-310, 5e-324])
    def test_radius_below_the_exact_solve_range_is_named(self, radius):
        # The exact solve works in units of the radius, which overflow here; a
        # leaked RuntimeWarning would fail the test under the pytest settings.
        law = benchmark_law("convex")
        data = sample_dataset(law, 40, 40, RNG.split("tiny"))
        message = f"domain radius {radius!r} is too small: the minimizer solve overflows"
        for minimizer, source in ((erm_minimizer, data), (population_minimizer, law)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                minimizer(source, radius)
            # The projected-gradient reference has no such range.
            cert = minimizer(source, radius, method="projected_gradient")
            assert _norm(cert.x_star) <= radius

    def test_smallest_radius_of_the_exact_solve(self):
        law = benchmark_law("convex")
        data = sample_dataset(law, 40, 40, RNG.split("tiny"))
        for cert in (erm_minimizer(data, 2e-308), population_minimizer(law, 2e-308)):
            assert cert.method == "trust_region"
            assert _norm(cert.x_star) <= 2e-308

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
    def test_bad_radius_rejected(self, radius):
        data = sample_dataset(benchmark_law("convex"), 4, 4, RNG.split("radius"))
        with pytest.raises(ValueError, match="^invalid domain$"):
            erm_minimizer(data, radius)
        with pytest.raises(ValueError, match="^invalid domain$"):
            population_minimizer(benchmark_law("convex"), radius)


def assert_boundary_certificate(auto, reference, radius):
    """The exact solve sits on the sphere, is stationary there, and is no
    worse than the independent projected-gradient reference."""
    assert auto.method == "trust_region"
    assert reference.method == "projected_gradient_high_precision"
    assert abs(np.linalg.norm(auto.x_star) - radius) <= 1e-12
    assert np.linalg.norm(auto.x_star) <= radius
    assert auto.kkt_residual <= 1e-13
    assert np.linalg.norm(auto.x_star - reference.x_star) <= 1e-8
    assert auto.value <= reference.value + 1e-14


class TestTrustRegionBoundary:
    # Radii are fractions of the unconstrained minimizer's norm, which is
    # about 2.4-2.8 on the convex law and 0.5-0.8 on the strongly convex
    # one, so every case is a boundary solve: deep inside (0.05), halfway
    # (0.5) and short of the unconstrained point (0.99).  At 1 - 1e-9 the
    # multiplier is tiny, so an eigen-direction of the rank-deficient
    # convex Gram matrix that is not zeroed shows up as a 1e-7 error.
    @pytest.mark.parametrize("kind", ["convex", "strongly_convex"])
    @pytest.mark.parametrize("size", [1, 2, 40])
    @pytest.mark.parametrize("fraction", [0.05, 0.5, 0.99, 1 - 1e-9])
    def test_erm_matches_projected_gradient(self, kind, size, fraction):
        data = sample_dataset(benchmark_law(kind), size, size, RNG.split(f"tr-{kind}-{size}"))
        radius = fraction * np.linalg.norm(erm_minimizer(data, 1e6).x_star)
        auto = erm_minimizer(data, radius)
        reference = erm_minimizer(data, radius, method="projected_gradient")
        assert_boundary_certificate(auto, reference, radius)
        assert auto.value == pytest.approx(empirical_risk(data, auto.x_star), abs=1e-14)

    @pytest.mark.parametrize("kind", ["convex", "strongly_convex"])
    def test_population_matches_projected_gradient(self, kind):
        law = benchmark_law(kind)
        auto = population_minimizer(law, 0.5)
        reference = population_minimizer(law, 0.5, method="projected_gradient")
        assert_boundary_certificate(auto, reference, 0.5)
        assert auto.value == pytest.approx(population_risk(law, auto.x_star), abs=1e-14)


class TestProjectedGradient:
    def test_stall_at_iteration_cap_raises(self):
        # One iteration from the origin cannot reach the KKT tolerance.
        data = sample_dataset(benchmark_law("convex"), 20, 20, RNG.split("stall"))
        gram = data.a_bar.T @ data.a_bar
        rhs = data.a_bar.T @ (data.c_bar - data.b_bar)
        with pytest.raises(RuntimeError, match=r"^projected gradient stalled at residual "
                           r"\d\.\d{3}e[+-]\d\d$"):
            oracle._projected_gradient(gram, rhs, 10.0, max_iters=1)


class TestPopulationMinimizer:
    def test_zero_noise_matches_empirical(self):
        law = dataclasses.replace(
            benchmark_law("strongly_convex"), tau_a=0.0, tau_b=0.0, tau_c=0.0
        )
        data = sample_dataset(law, 5, 5, RNG.split("zn"))
        pop = population_minimizer(law, 10.0)
        erm = erm_minimizer(data, 10.0)
        np.testing.assert_allclose(pop.x_star, erm.x_star, atol=1e-10)
        assert pop.value == pytest.approx(erm.value, abs=1e-12)

    @pytest.mark.parametrize("kind", ["convex", "strongly_convex"])
    def test_value_is_population_risk_at_certificate(self, kind):
        law = benchmark_law(kind)
        pop = population_minimizer(law, 10.0)
        assert pop.value == population_risk(law, pop.x_star)

    def test_value_includes_irreducible_outer_noise(self):
        law = benchmark_law("convex")
        pop = population_minimizer(law, 10.0)
        assert pop.value >= 0.5 * law.outer_variance - 1e-15

    def test_monte_carlo_value_agreement(self):
        law = benchmark_law("strongly_convex")
        pop = population_minimizer(law, 10.0)
        gen = RNG.split("mc").generator()
        draws = 1_000_000
        c = law.c0 + gen.uniform(-law.tau_c, law.tau_c, size=(draws, law.d))
        values = 0.5 * np.sum((law.inner_mean(pop.x_star) - c) ** 2, axis=1)
        se = values.std(ddof=1) / np.sqrt(draws)
        assert abs(values.mean() - pop.value) < 3 * se
        assert values.mean() >= population_risk(law, pop.x_star) - 3 * se


class TestBoundParams:
    @pytest.mark.parametrize("overrides, message", [
        ({"lip_f": -1.0}, "lip_f must be a finite nonnegative real"),
        ({"var_g": np.nan}, "var_g must be a finite nonnegative real"),
        ({"sigma": 2.0}, "sigma cannot exceed the smoothness constant"),
    ])
    def test_bad_constant_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            unit_params(**overrides)


class TestTrackingBound:
    def test_hand_value_scgd(self):
        params = unit_params()
        value = tracking_bound(Variant.SCGD, 10, params, eta=0.01, beta=0.1)
        expected = math.exp(-1.0) * 1.0 + 0.01 + 0.2
        assert value == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.57788, abs=5e-6)

    def test_hand_value_scsc(self):
        params = unit_params()
        value = tracking_bound(Variant.SCSC, 10, params, eta=0.01, beta=0.1)
        expected = math.exp(-1.0) + 0.001 + 0.2
        assert value == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.56888, abs=5e-6)

    def test_surviving_term_when_variances_vanish(self):
        params = unit_params(var_g=0.0, d_y=0.0, lip_f=2.0, lip_g=3.0)
        value = tracking_bound(Variant.SCGD, 5, params, eta=0.01, beta=0.1)
        assert value == pytest.approx(4.0 * 27.0 * 1e-4 / 1e-2, rel=1e-12)

    def test_undefined_at_step_zero(self):
        with pytest.raises(ValueError, match="bound undefined at t=0"):
            tracking_bound(Variant.SCGD, 0, unit_params(), eta=0.01, beta=0.1)

    @pytest.mark.parametrize("eta, beta", [(-0.01, 0.1), (0.01, 0.0), (0.01, 1.5)])
    def test_bad_step_sizes_rejected(self, eta, beta):
        with pytest.raises(ValueError, match=f"^{re.escape('need eta >= 0 and beta in (0, 1]')}$"):
            tracking_bound(Variant.SCGD, 1, unit_params(), eta, beta)

    def test_monotone_decreasing_in_t(self):
        params = unit_params(free_c=2.0)
        values = [
            tracking_bound(Variant.SCSC, t, params, eta=0.01, beta=0.1)
            for t in (1, 2, 5, 20, 100)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_variance_and_initial_gap(self):
        lo = unit_params(var_g=0.5, d_y=0.5)
        hi = unit_params(var_g=1.5, d_y=1.5)
        for variant in (Variant.SCGD, Variant.SCSC):
            assert (
                tracking_bound(variant, 7, hi, 0.01, 0.1)
                > tracking_bound(variant, 7, lo, 0.01, 0.1)
            )

    def test_returns_a_float(self):
        assert type(tracking_bound(Variant.SCGD, 3, unit_params(), 0.01, 0.1)) is float

    @pytest.mark.parametrize("eta, beta", [(1e300, 0.1), (0.01, 1e-200)])
    def test_unbounded_value_rejected(self, eta, beta):
        with pytest.raises(ValueError, match="bound value must be finite and nonnegative"):
            tracking_bound(Variant.SCGD, 1, unit_params(), eta, beta)


class TestFdGradientCheck:
    def test_small_error_at_moderate_step(self):
        data = sample_dataset(benchmark_law("convex"), 20, 20, RNG.split("fd"))
        x = project_ball(RNG.split("fdx").generator().uniform(-10, 10, size=data.p), 10.0)
        assert fd_gradient_check(data, x, h=1e-5) < 1e-6

    def test_near_zero_at_minimizer(self):
        data = sample_dataset(benchmark_law("convex"), 20, 20, RNG.split("fdm"))
        cert = erm_minimizer(data, 10.0)
        assert fd_gradient_check(data, cert.x_star, h=1e-5) < 1e-7

    def test_roundoff_dominates_for_quadratic_objectives(self):
        # Central differences are exact for quadratics (no truncation term),
        # so the only error source is cancellation, which shrinks as the
        # step grows: the coarse step is the more accurate one here.
        data = sample_dataset(benchmark_law("convex"), 20, 20, RNG.split("fdt"))
        x = project_ball(RNG.split("fdtx").generator().uniform(-10, 10, size=data.p), 10.0)
        coarse = fd_gradient_check(data, x, h=1e-2)
        fine = fd_gradient_check(data, x, h=1e-5)
        assert coarse < fine < 1e-6

    def test_finite_errors_give_their_maximum(self):
        data = sample_dataset(benchmark_law("convex"), 20, 20, RNG.split("fdmax"))
        x = RNG.split("fdmaxx").generator().uniform(-3, 3, size=data.p)
        h = 1e-5
        analytic = empirical_risk_grad(data, x)
        errors = []
        for k in range(data.p):
            bump = h * np.eye(data.p)[k]
            fd = (empirical_risk(data, x + bump) - empirical_risk(data, x - bump)) / (2.0 * h)
            errors.append(abs(analytic[k] - fd) / (1.0 + abs(fd)))
        assert fd_gradient_check(data, x, h) == max(errors)

    @pytest.mark.parametrize(
        "x, h",
        [([math.nan] * 5, 1e-5), ([1e200, 0, 0, 0, 0], 1e-5), ([1.0, 0, 0, 0, 0], 1e200)],
        ids=["nan-point", "overflowing-point", "overflowing-step"],
    )
    def test_nan_error_is_reported_without_warning(self, x, h):
        # A NaN coordinate must not be dropped by the maximum, and the
        # overflow behind it must not warn (RuntimeWarnings are errors here).
        data = sample_dataset(benchmark_law("convex"), 4, 4, RNG.split("fdnan"))
        assert math.isnan(fd_gradient_check(data, x, h))

    def test_rejects_bad_step(self):
        data = sample_dataset(benchmark_law("convex"), 4, 4, RNG.split("fdb"))
        with pytest.raises(ValueError, match="h must be positive"):
            fd_gradient_check(data, np.zeros(data.p), h=0.0)
