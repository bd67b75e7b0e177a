import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scalar_reference import mat_vec
from scolab.core import Rng, project_ball

finite_vecs = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 6),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


class TestProjectBall:
    def test_radial_scaling(self):
        np.testing.assert_allclose(project_ball([3.0, 4.0], 1.0), [0.6, 0.8])

    def test_interior_point_unchanged(self):
        np.testing.assert_array_equal(project_ball([0.3, 0.4], 1.0), [0.3, 0.4])

    def test_origin_fixed_point(self):
        np.testing.assert_array_equal(project_ball([0.0, 0.0], 5.0), [0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite vector"):
            project_ball([np.nan, 0.0], 1.0)
        with pytest.raises(ValueError, match="non-finite vector"):
            project_ball([np.inf, 0.0], 1.0)

    def test_overflowing_norm_keeps_direction(self):
        # ||v||^2 overflows to inf here; the projection must still land on
        # the sphere along v rather than collapse to the origin.
        np.testing.assert_array_equal(project_ball([1e200, 0.0], 1.0), [1.0, 0.0])
        out = project_ball([3e154, 4e154], 10.0)
        np.testing.assert_allclose(out, [6.0, 8.0], rtol=1e-15)
        assert float(np.linalg.norm(out)) <= 10.0
        np.testing.assert_array_equal(project_ball(out, 10.0), out)
        # Inside a ball that large, a point stays where it is; outside, it
        # lands on the sphere even where ||v|| itself exceeds the float range.
        np.testing.assert_array_equal(project_ball([1e200, 0.0], 2e200), [1e200, 0.0])
        np.testing.assert_allclose(project_ball([1e300, 2e300], 1e200) / 1e200,
                                   np.array([1.0, 2.0]) / np.sqrt(5.0), rtol=1e-15)
        np.testing.assert_allclose(project_ball([1.7e308, -1.7e308], 1.0),
                                   [0.5**0.5, -(0.5**0.5)], rtol=1e-15)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError, match="invalid domain"):
            project_ball([1.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="invalid domain"):
            project_ball([1.0, 0.0], -2.0)

    @given(finite_vecs, st.floats(1e-3, 1e3))
    @settings(max_examples=200)
    def test_idempotent_exactly(self, v, radius):
        once = project_ball(v, radius)
        twice = project_ball(once, radius)
        assert np.array_equal(once, twice)
        assert float(np.linalg.norm(once)) <= radius

    @given(st.data(), st.integers(1, 6), st.floats(1e-3, 1e3))
    @settings(max_examples=200)
    def test_non_expansive(self, data, dim, radius):
        elems = st.floats(-1e6, 1e6, allow_nan=False)
        u = data.draw(hnp.arrays(np.float64, dim, elements=elems))
        v = data.draw(hnp.arrays(np.float64, dim, elements=elems))
        pu, pv = project_ball(u, radius), project_ball(v, radius)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) * (1 + 1e-12) + 1e-15


class TestMatVec:
    def test_identity(self):
        np.testing.assert_array_equal(mat_vec(np.eye(2), [0.2, 0.0]), [0.2, 0.0])

    def test_diagonal(self):
        np.testing.assert_array_equal(mat_vec(np.diag([2.0, 1.0]), [1.0, 1.0]), [2.0, 1.0])

    def test_zero_rectangular(self):
        np.testing.assert_array_equal(mat_vec(np.zeros((3, 2)), [5.0, 7.0]), [0.0, 0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mat_vec(np.eye(2), [1.0, 2.0, 3.0])

    def test_linearity(self):
        gen = np.random.Generator(np.random.Philox(key=3))
        for _ in range(20):
            j = gen.normal(size=(4, 3))
            u, v = gen.normal(size=3), gen.normal(size=3)
            a, b = gen.normal(), gen.normal()
            lhs = mat_vec(j, a * u + b * v)
            rhs = a * mat_vec(j, u) + b * mat_vec(j, v)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestRng:
    def test_split_deterministic(self):
        a = Rng(1).split("trial-0").generator().uniform(size=100)
        b = Rng(1).split("trial-0").generator().uniform(size=100)
        assert np.array_equal(a, b)

    def test_labels_give_distinct_streams(self):
        a = Rng(1).split("trial-0").generator().uniform(size=100)
        b = Rng(1).split("trial-1").generator().uniform(size=100)
        assert np.any(a != b)

    def test_seeds_give_distinct_streams(self):
        a = Rng(2).split("x").generator().uniform(size=100)
        b = Rng(1).split("x").generator().uniform(size=100)
        assert np.any(a != b)

    def test_children_are_order_independent(self):
        parent = Rng(9)
        first = parent.split("a").generator().uniform(size=10)
        parent.split("b").generator().uniform(size=10)
        again = parent.split("a").generator().uniform(size=10)
        assert np.array_equal(first, again)

    def test_rejects_out_of_range_identifiers(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(2**64)
