import dataclasses

import numpy as np
import pytest

from scalar_reference import inner_eval, inner_jac, outer_eval, outer_grad
from scolab.core import Rng, project_ball
from scolab.oracle import erm_minimizer
from scolab.problems import (
    Dataset,
    _max_quadratic_on_ball,
    PopulationLaw,
    benchmark_law,
    compute_constants,
    empirical_inner,
    empirical_risk,
    empirical_risk_grad,
    population_risk,
    sample_dataset,
)

RNG = Rng(101)


def default_dataset(n=40, m=40, seed_label="data"):
    return sample_dataset(benchmark_law("convex"), n, m, RNG.split(seed_label))


def fd_risk_gradient(dataset, x, h=1e-5):
    """Independent central-difference oracle for the composed gradient."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.shape[0]):
        bump = np.zeros_like(x)
        bump[k] = h
        grad[k] = (empirical_risk(dataset, x + bump) - empirical_risk(dataset, x - bump)) / (2 * h)
    return grad


class TestSampleEvaluations:
    def test_identity_inner(self):
        a, b = np.eye(2), np.zeros(2)
        np.testing.assert_array_equal(inner_eval(a, b, [1.0, 2.0]), [1.0, 2.0])
        np.testing.assert_array_equal(inner_jac(a, [1.0, 2.0]), np.eye(2))

    def test_affine_inner(self):
        a, b = np.diag([2.0, 1.0]), [1.0, 0.0]
        np.testing.assert_array_equal(inner_eval(a, b, [1.0, 1.0]), [3.0, 1.0])

    def test_inner_jacobian_matches_finite_differences(self):
        gen = RNG.split("jac").generator()
        a, b = gen.normal(size=(4, 5)), gen.normal(size=4)
        x = gen.normal(size=5)
        jac = inner_jac(a, x)
        h = 1e-5
        for k in range(5):
            bump = np.zeros(5)
            bump[k] = h
            fd_row = (inner_eval(a, b, x + bump) - inner_eval(a, b, x - bump)) / (2 * h)
            np.testing.assert_allclose(jac[k], fd_row, atol=1e-6)

    def test_outer_minimum(self):
        c = [1.0, 2.0]
        assert outer_eval(c, [1.0, 2.0]) == 0.0
        np.testing.assert_array_equal(outer_grad(c, [1.0, 2.0]), [0.0, 0.0])

    def test_outer_value_and_grad(self):
        c = [0.0, 0.0]
        assert outer_eval(c, [3.0, 4.0]) == pytest.approx(12.5)
        np.testing.assert_array_equal(outer_grad(c, [3.0, 4.0]), [3.0, 4.0])

    def test_outer_grad_matches_finite_differences(self):
        gen = RNG.split("og").generator()
        c = gen.normal(size=3)
        y = gen.normal(size=3)
        h = 1e-5
        for k in range(3):
            bump = np.zeros(3)
            bump[k] = h
            fd = (outer_eval(c, y + bump) - outer_eval(c, y - bump)) / (2 * h)
            assert abs(fd - outer_grad(c, y)[k]) < 1e-6


class TestSampling:
    def test_zero_noise_collapses(self):
        law = PopulationLaw(a0=np.eye(2), b0=[1.0, 0.0], c0=[0.0, 1.0])
        data = sample_dataset(law, 5, 7, RNG.split("zn"))
        for j in range(7):
            np.testing.assert_array_equal(data.inner_a[j], np.eye(2))
            np.testing.assert_array_equal(data.inner_b[j], [1.0, 0.0])
        for i in range(5):
            np.testing.assert_array_equal(data.outer_c[i], [0.0, 1.0])

    def test_deterministic_given_stream(self):
        law = benchmark_law("convex")
        a = sample_dataset(law, 8, 9, RNG.split("det"))
        b = sample_dataset(law, 8, 9, RNG.split("det"))
        assert a == b

    def test_empty_dataset_rejected(self):
        law = benchmark_law("convex")
        with pytest.raises(ValueError, match="empty dataset"):
            sample_dataset(law, 0, 5, RNG.split("e"))
        with pytest.raises(ValueError, match="empty dataset"):
            sample_dataset(law, 5, 0, RNG.split("e"))

    def test_outer_mean_concentrates(self):
        law = dataclasses.replace(benchmark_law("convex"), tau_c=1.0)
        n = 10_000
        data = sample_dataset(law, n, 2, RNG.split("mc"))
        sd = law.tau_c / np.sqrt(3.0)
        tol = 3.0 * sd / np.sqrt(n)
        assert np.max(np.abs(data.outer_c.mean(axis=0) - law.c0)) < tol


class TestEmpiricalObjective:
    def test_single_inner_sample(self):
        data = default_dataset(m=1, seed_label="single")
        x = np.ones(data.p)
        np.testing.assert_allclose(
            empirical_inner(data, x), inner_eval(data.inner_a[0], data.inner_b[0], x), atol=1e-15
        )

    def test_mean_of_two_offsets(self):
        data = Dataset(
            inner_a=np.zeros((2, 2, 2)),
            inner_b=np.array([[0.0, 0.0], [2.0, 0.0]]),
            outer_c=np.zeros((1, 2)),
        )
        np.testing.assert_array_equal(empirical_inner(data, [0.0, 0.0]), [1.0, 0.0])

    def test_matches_explicit_summation(self):
        data = default_dataset(seed_label="sum")
        gen = RNG.split("sumx").generator()
        for _ in range(5):
            x = gen.normal(size=data.p)
            total = np.zeros(data.d)
            for j in range(data.m):
                total += inner_eval(data.inner_a[j], data.inner_b[j], x)
            np.testing.assert_allclose(empirical_inner(data, x), total / data.m, atol=1e-12)
            risk = 0.0
            g = total / data.m
            for i in range(data.n):
                risk += outer_eval(data.outer_c[i], g)
            assert empirical_risk(data, x) == pytest.approx(risk / data.n, abs=1e-12)

    def test_minimal_composition(self):
        data = Dataset(
            inner_a=np.ones((1, 1, 1)),
            inner_b=np.zeros((1, 1)),
            outer_c=np.ones((1, 1)),
        )
        assert empirical_risk(data, [0.0]) == pytest.approx(0.5)

    def test_value_at_minimizer_matches_certificate(self):
        data = default_dataset(seed_label="cert")
        cert = erm_minimizer(data, 10.0)
        assert empirical_risk(data, cert.x_star) == pytest.approx(cert.value, abs=1e-10)

    def test_minimality_on_random_points(self):
        data = default_dataset(seed_label="min")
        cert = erm_minimizer(data, 10.0)
        gen = RNG.split("minx").generator()
        for _ in range(100):
            x = project_ball(gen.uniform(-10, 10, size=data.p), 10.0)
            assert empirical_risk(data, x) >= cert.value - 1e-10


class TestGradient:
    def test_zero_at_interior_minimizer(self):
        data = default_dataset(seed_label="gm")
        cert = erm_minimizer(data, 10.0)
        assert np.linalg.norm(empirical_risk_grad(data, cert.x_star)) < 1e-8

    def test_matches_finite_differences(self):
        data = default_dataset(seed_label="gfd")
        gen = RNG.split("gfdx").generator()
        for _ in range(20):
            x = project_ball(gen.uniform(-10, 10, size=data.p), 10.0)
            fd = fd_risk_gradient(data, x)
            err = np.linalg.norm(empirical_risk_grad(data, x) - fd) / (1 + np.linalg.norm(fd))
            assert err < 1e-6

    def test_identity_inner_single_outer(self):
        data = Dataset(
            inner_a=np.eye(3)[None, :, :],
            inner_b=np.zeros((1, 3)),
            outer_c=np.array([[1.0, -2.0, 0.5]]),
        )
        x = np.array([0.3, 0.7, -1.0])
        np.testing.assert_allclose(empirical_risk_grad(data, x), x - data.outer_c[0], atol=1e-15)


class TestPopulationRisk:
    def test_zero_at_population_minimizer_without_outer_noise(self):
        # The wide benchmark matrix has full row rank, so the target is
        # reachable and the noiseless population minimum is exactly zero.
        law = dataclasses.replace(benchmark_law("convex"), tau_c=0.0)
        gram = law.a0.T @ law.a0
        x_star, *_ = np.linalg.lstsq(gram, law.a0.T @ (law.c0 - law.b0), rcond=None)
        assert population_risk(law, x_star) == pytest.approx(0.0, abs=1e-24)

    def test_minimality(self):
        law = benchmark_law("convex")
        gram = law.a0.T @ law.a0
        x_star, *_ = np.linalg.lstsq(gram, law.a0.T @ (law.c0 - law.b0), rcond=None)
        best = population_risk(law, x_star)
        gen = RNG.split("popmin").generator()
        for _ in range(100):
            assert population_risk(law, gen.uniform(-10, 10, size=law.p)) >= best - 1e-12

    def test_monte_carlo_agreement(self):
        law = benchmark_law("convex")
        x = np.array([0.5, -1.0, 2.0, 0.0, 1.0])
        gen = RNG.split("popmc").generator()
        draws = 1_000_000
        c = law.c0 + gen.uniform(-law.tau_c, law.tau_c, size=(draws, law.d))
        g = law.inner_mean(x)
        values = 0.5 * np.sum((g - c) ** 2, axis=1)
        se = values.std(ddof=1) / np.sqrt(draws)
        assert abs(values.mean() - population_risk(law, x)) < 3 * se


class TestComputeConstants:
    def test_degenerate_inner_family(self):
        law = dataclasses.replace(benchmark_law("convex"), tau_a=0.0, tau_b=0.0)
        data = sample_dataset(law, 10, 10, RNG.split("deg"))
        params = compute_constants(data, 10.0)
        assert params.var_g == pytest.approx(0.0, abs=1e-18)
        assert params.var_grad_g == pytest.approx(0.0, abs=1e-18)

    def test_operator_norm_of_diagonal(self):
        data = Dataset(
            inner_a=np.diag([2.0, 1.0])[None, :, :],
            inner_b=np.zeros((1, 2)),
            outer_c=np.zeros((3, 2)),
        )
        assert compute_constants(data, 5.0).lip_g == pytest.approx(2.0)

    @pytest.mark.parametrize("kind, m", [
        ("convex", 1), ("convex", 13), ("strongly_convex", 2), ("strongly_convex", 40),
    ])
    def test_lip_g_is_exact_max_operator_norm(self, kind, m):
        data = sample_dataset(benchmark_law(kind), 3, m, RNG.split(f"lipg-{kind}-{m}"))
        expected = max(float(np.linalg.norm(a_j, 2)) for a_j in data.inner_a)
        assert compute_constants(data, 10.0).lip_g == expected

    def test_var_g_against_random_search(self):
        data = default_dataset(seed_label="vg")
        params = compute_constants(data, 10.0)
        gen = RNG.split("vgsearch").generator()
        points = gen.normal(size=(100_000, data.p))
        points *= (
            10.0
            * gen.uniform(size=100_000) ** (1.0 / data.p)
            / np.linalg.norm(points, axis=1)
        )[:, None]
        diffs_a = data.inner_a - data.a_bar
        diffs_b = data.inner_b - data.b_bar
        dev = np.einsum("jdp,kp->kjd", diffs_a, points) + diffs_b[None, :, :]
        brute = float(np.max(np.mean(np.sum(dev * dev, axis=2), axis=1)))
        assert params.var_g >= brute - 1e-12
        assert abs(params.var_g - brute) / brute < 0.05

    def test_sigma_at_most_smoothness(self):
        for kind in ("convex", "strongly_convex"):
            data = sample_dataset(benchmark_law(kind), 20, 20, RNG.split("sl" + kind))
            params = compute_constants(data, 10.0)
            assert params.sigma <= params.smooth_l + 1e-12

    def test_var_g_exact_in_near_hard_case(self):
        # Two inner maps a_bar +- D, offsets +-e: var_g = sup ||D x + e||^2.
        # D'D = diag(1, 1 - delta) has a small eigengap and D'e has no weight
        # on the top eigenvector, so the maximizer is the hard-case point with
        # x_2 = s / delta and the sup is R^2 + s^2 / delta + t^2.
        delta, t, radius = 1e-3, 1e-3, 10.0
        dev_a = np.diag([1.0, np.sqrt(1.0 - delta)])
        dev_b = np.array([0.0, t])
        a_bar = np.array([[0.3, 0.1], [0.0, 0.5]])
        data = Dataset(
            inner_a=np.stack([a_bar + dev_a, a_bar - dev_a]),
            inner_b=np.stack([dev_b, -dev_b]),
            outer_c=np.zeros((3, 2)),
        )
        s = np.sqrt(1.0 - delta) * t
        exact = radius**2 + s**2 / delta + t**2
        assert compute_constants(data, radius).var_g == pytest.approx(exact, rel=1e-13)

    def test_lip_f_over_all_targets(self):
        # g_j(x) = alpha x +- e, so ||g_bar(x) - c|| peaks at alpha R + ||c||
        # and d_y = (alpha R)^2; every target is a candidate.
        alpha, radius = 0.7, 3.0
        e = np.array([1e-3, 0.0, 0.0])
        targets = RNG.split("lipf").generator().normal(size=(25, 3))
        data = Dataset(
            inner_a=np.stack([alpha * np.eye(3)] * 2),
            inner_b=np.stack([e, -e]),
            outer_c=targets,
        )
        params = compute_constants(data, radius)
        assert params.d_y == pytest.approx((alpha * radius) ** 2, rel=1e-13)
        far = np.max(np.linalg.norm(targets, axis=1))
        assert params.lip_f == pytest.approx(2.0 * alpha * radius + far, rel=1e-13)


class TestMaxQuadraticOnBall:
    """Exact sup of x'Mx + 2v'x + c over ||x|| <= R against closed forms."""

    @staticmethod
    def solve(mat, vec, const, radius):
        return float(_max_quadratic_on_ball(np.asarray(mat, float), np.asarray(vec, float),
                                            const, radius))

    def test_one_dimensional(self):
        for m, v in ((2.0, 0.7), (0.5, -3.0), (0.0, 1.5), (1.0, 0.0)):
            assert self.solve([[m]], [v], 0.25, 4.0) == pytest.approx(
                m * 16.0 + 2.0 * abs(v) * 4.0 + 0.25, rel=1e-14)

    def test_zero_matrix(self):
        vec = np.array([0.3, -1.2, 0.4])
        assert self.solve(np.zeros((3, 3)), vec, 1.0, 2.5) == pytest.approx(
            2.0 * 2.5 * np.linalg.norm(vec) + 1.0, rel=1e-14)

    def test_hard_case_without_linear_term(self):
        assert self.solve(np.diag([2.0, 1.0]), [0.0, 0.0], 0.5, 3.0) == pytest.approx(
            2.0 * 9.0 + 0.5, rel=1e-14)

    def test_hard_case_with_off_top_component(self):
        # max of x1^2 + (1 - delta) x2^2 + 2 s x2 on the sphere: x2 = s / delta
        # when that lies inside the ball, value R^2 + s^2 / delta.
        for delta, s, radius in ((0.5, 0.2, 2.0), (1e-3, 1e-3, 10.0), (1e-2, 1e-4, 1.0)):
            assert s / delta < radius
            got = self.solve(np.diag([1.0, 1.0 - delta]), [0.0, s], 0.1, radius)
            assert got == pytest.approx(radius**2 + s**2 / delta + 0.1, rel=1e-13)

    def test_rank_deficient_rotated(self):
        # M = a q1 q1', v = s q2: x along q2 alone gives 2 s R; mixing in q1
        # gives a R^2 + s^2 / a when s / a < R.
        rot, _ = np.linalg.qr(RNG.split("rot").generator().normal(size=(3, 3)))
        a, radius = 2.0, 1.5
        mat = a * np.outer(rot[:, 0], rot[:, 0])
        for s in (0.5, 1.0, 4.0, 10.0):
            expected = a * radius**2 + s**2 / a if s / a < radius else 2.0 * s * radius
            got = self.solve(mat, s * rot[:, 1], 0.0, radius)
            assert got == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def random_problems(count, label):
        gen = RNG.split(label).generator()
        p = 4
        mats, vecs = [], []
        for k in range(count):
            b = gen.normal(size=(3, p))
            if k % 4 == 1:
                b = np.outer(gen.normal(size=3), gen.normal(size=p))
            elif k % 4 == 2:
                b = np.zeros((3, p))
            mat = b.T @ b
            vec = gen.normal(size=p) * gen.uniform(0.0, 2.0)
            if k % 4 == 3:
                _, eigvecs = np.linalg.eigh(mat)
                vec = 1e-3 * eigvecs[:, :-1] @ gen.normal(size=p - 1)
            mats.append(mat)
            vecs.append(vec)
        return np.stack(mats), np.stack(vecs), gen.uniform(0.0, 2.0, size=count)

    def test_batched_matches_per_problem(self):
        mats, vecs, consts = self.random_problems(40, "batch")
        batched = _max_quadratic_on_ball(mats, vecs, consts, 2.0)
        single = [self.solve(mats[k], vecs[k], consts[k], 2.0) for k in range(40)]
        np.testing.assert_allclose(batched, single, rtol=1e-13)

    def test_dominates_sampled_sphere(self):
        mats, vecs, consts = self.random_problems(200, "sphere")
        radius = 3.0
        exact = _max_quadratic_on_ball(mats, vecs, consts, radius)
        pts = RNG.split("sphere-pts").generator().normal(size=(4000, 4))
        pts *= radius / np.linalg.norm(pts, axis=1, keepdims=True)
        sampled = (np.einsum("np,kpq,nq->kn", pts, mats, pts)
                   + 2.0 * vecs @ pts.T + consts[:, None]).max(axis=1)
        assert np.all(exact >= sampled - 1e-12 * np.abs(exact))
        assert np.all(exact <= sampled + 0.05 * np.abs(exact))


class TestInvariants:
    def test_variance_identity(self):
        data = default_dataset(seed_label="vi")
        diffs_a = data.inner_a - data.a_bar
        diffs_b = data.inner_b - data.b_bar
        mom_mat = np.einsum("jdp,jdq->pq", diffs_a, diffs_a) / data.m
        mom_vec = np.einsum("jdp,jd->p", diffs_a, diffs_b) / data.m
        mom_const = float(np.mean(np.sum(diffs_b * diffs_b, axis=1)))
        gen = RNG.split("vix").generator()
        for _ in range(20):
            x = gen.uniform(-10, 10, size=data.p)
            direct = 0.0
            g_bar = empirical_inner(data, x)
            for j in range(data.m):
                dev = inner_eval(data.inner_a[j], data.inner_b[j], x) - g_bar
                direct += float(dev @ dev)
            direct /= data.m
            moment = float(x @ mom_mat @ x + 2.0 * mom_vec @ x + mom_const)
            assert abs(direct - moment) < 1e-10

    def test_strong_convexity_witness(self):
        data = sample_dataset(benchmark_law("strongly_convex"), 30, 30, RNG.split("scw"))
        sigma = compute_constants(data, 10.0).sigma
        gen = RNG.split("scwx").generator()
        for _ in range(100):
            u = project_ball(gen.uniform(-10, 10, size=data.p), 10.0)
            v = project_ball(gen.uniform(-10, 10, size=data.p), 10.0)
            lhs = empirical_risk(data, u)
            rhs = (
                empirical_risk(data, v)
                + empirical_risk_grad(data, v) @ (u - v)
                + 0.5 * sigma * float((u - v) @ (u - v))
            )
            assert lhs >= rhs - 1e-8

    def test_empirical_matches_population_at_scale(self):
        law = benchmark_law("convex")
        x = np.array([1.0, -0.5, 0.25, 2.0, -1.5])
        n = m = 10_000
        data = sample_dataset(law, n, m, RNG.split("emp"))
        g_bar = empirical_inner(data, x)
        outer_vals = 0.5 * np.sum((g_bar - data.outer_c) ** 2, axis=1)
        se_outer_sq = outer_vals.var(ddof=1) / n
        grad_outer = g_bar - data.c_bar
        dev = np.einsum("jdp,p->jd", data.inner_a - data.a_bar, x) + (
            data.inner_b - data.b_bar
        )
        inner_var = float(np.mean(np.sum(dev * dev, axis=1)))
        se_inner_sq = float(grad_outer @ grad_outer) * inner_var / m
        se = np.sqrt(se_outer_sq + se_inner_sq)
        assert abs(empirical_risk(data, x) - population_risk(law, x)) < 4 * se
