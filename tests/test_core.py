import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scalar_reference import mat_vec
from scolab.core import Rng, _norm, _PhiloxKey, as_matrix, as_vector, project_ball

# Every test here must pass on every OpenBLAS core type.
pytestmark = pytest.mark.blas_portable

finite_vecs = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 6),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)
# A common factor 10^k, k in [-300, 300], moves the vectors and radii of the
# projection properties across the float range.
magnitudes = st.floats(-300.0, 300.0).map(lambda k: 10.0**k)


def reference_projection(v, radius):
    """The projection in plain float arithmetic: v (R / ||v||), rescaled
    again while an ulp outside.  Exact where no square under- or overflows."""
    if (nrm := np.linalg.norm(v)) <= radius:
        return v
    out = v * (radius / nrm)
    while (nrm := np.linalg.norm(out)) > radius:
        out = out * (radius / nrm)
    return out


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

    def test_exact_where_squares_overflow_or_underflow(self):
        # ||v||^2 overflows, and R^2 underflows: the exact rescale of v still
        # gives the true projection, not the origin.
        np.testing.assert_array_equal(project_ball([1e300, 0.0], 1e-300), [1e-300, 0.0])
        np.testing.assert_array_equal(project_ball([3e200, 4e200], 1e-200), [6e-201, 8e-201])

    @pytest.mark.parametrize("v, radius", [([1e-160, 0.0], 1e-161), ([1e-300, 0.0], 1e-310)],
                             ids=["underflowing-square", "subnormal-radius"])
    def test_underflowing_norm_lands_on_the_sphere(self, v, radius):
        # np.linalg.norm reads [1e-161, 0] 0.6% short and [1e-300, 0] as 0.
        out = project_ball(v, radius)
        np.testing.assert_array_equal(out, [radius, 0.0])
        assert _norm(out) == radius

    def test_subnormal_entries_end_inside(self):
        # Scaling by a quotient just below 1 rounds subnormal entries back to
        # themselves (for 4 entries at 3 and 7 times the least subnormal); the
        # projection must still end inside the ball.
        v = np.ones(4)
        for k in (1, 2, 3, 7, 1000, 2**40):
            radius = k * 5e-324
            out = project_ball(v, radius)
            assert _norm(out) <= radius
            assert math.hypot(*out) <= radius
            np.testing.assert_array_equal(project_ball(out, radius), out)

    def test_matches_plain_arithmetic_in_the_normal_range(self):
        # Where no square under- or overflows, _norm is np.linalg.norm and
        # the projection is v (R / ||v||) (rescaled again while an ulp
        # outside), byte for byte.
        gen = np.random.default_rng(19)
        projected = 0
        for i in range(4000):
            v = gen.standard_normal(int(gen.integers(1, 9)))
            v *= 10.0 ** gen.uniform(-100, 100) / np.linalg.norm(v)
            nrm = np.linalg.norm(v)
            radius = nrm * 10.0 ** gen.uniform(-3, 0.5) if i % 2 else 10.0 ** gen.uniform(-100, 100)
            assert _norm(v) == nrm
            out = project_ball(v, radius)
            assert out.tobytes() == reference_projection(v, radius).tobytes()
            projected += nrm > radius
        assert projected > 2000

    @pytest.mark.parametrize("exp", [600, 2, -600, -1074])
    def test_norm_exact_at_every_scale(self, exp):
        # A 3-4-5 triangle scaled by 2^exp: ||v||^2 overflows at 2^600,
        # underflows at 2^-600 and is subnormal at 2^-1074.
        v = np.ldexp([3.0, 4.0], exp)
        assert _norm(v) == math.ldexp(5.0, exp)

    def test_norm_of_zero_and_beyond_the_float_range(self):
        assert _norm(np.zeros(3)) == 0.0
        assert _norm(np.array([1.7e308, 1.7e308])) == np.inf

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError, match="invalid domain"):
            project_ball([1.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="invalid domain"):
            project_ball([1.0, 0.0], -2.0)

    @given(finite_vecs, st.floats(1e-3, 1e3), magnitudes)
    @settings(max_examples=300)
    def test_idempotent_exactly(self, v, radius, scale):
        v, radius = v * scale, radius * scale
        once = project_ball(v, radius)
        twice = project_ball(once, radius)
        assert np.array_equal(once, twice)
        assert _norm(once) <= radius
        # math.hypot is a scaled norm too, computed independently.
        assert math.hypot(*once) <= radius * (1 + 1e-15)

    @given(st.data(), st.integers(1, 6), st.floats(1e-3, 1e3), magnitudes)
    @settings(max_examples=300)
    def test_non_expansive(self, data, dim, radius, scale):
        elems = st.floats(-1e6, 1e6, allow_nan=False)
        u = data.draw(hnp.arrays(np.float64, dim, elements=elems)) * scale
        v = data.draw(hnp.arrays(np.float64, dim, elements=elems)) * scale
        radius *= scale
        pu, pv = project_ball(u, radius), project_ball(v, radius)
        assert math.hypot(*(pu - pv)) <= math.hypot(*(u - v)) * (1 + 1e-12) + 1e-15 * scale

    @given(st.floats(0.0, np.nextafter(np.finfo(float).max, 0.0), exclude_min=True), st.data())
    def test_rescale_ratio_is_below_one(self, a, data):
        # The rescale loop divides the radius by a larger norm; it needs the
        # quotient below 1.0, which rounding to nearest gives for 0 < a < b.
        b = data.draw(st.floats(a, np.finfo(float).max, exclude_min=True))
        assert a / b < 1.0
        assert a / np.nextafter(a, np.inf) < 1.0


class TestCoercion:
    @pytest.mark.parametrize("call, message", [
        (lambda: as_vector(np.zeros((2, 2))), "expected a 1-d vector, got shape (2, 2)"),
        (lambda: as_vector([1.0, 2.0], dim=3), "expected dimension 3, got 2"),
        (lambda: as_matrix([1.0, 2.0]), "expected a 2-d matrix, got shape (2,)"),
    ])
    def test_shape_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


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

    @pytest.mark.parametrize("rng", [
        Rng(0, 0), Rng(2**64 - 1, 2**64 - 1), Rng(1, 2**63), Rng(1).split("trial-0"),
        Rng(0).split("excess-risk-study").split("grid-0-rep-3"),
    ], ids=["zero", "all-ones", "top-bit", "child", "grandchild"])
    def test_generator_is_philox_keyed_by_seed_and_stream(self, rng):
        ours = rng.generator()
        ref = np.random.Generator(np.random.Philox(key=rng.seed | rng.stream << 64))
        assert _same_state(ours.bit_generator.state, ref.bit_generator.state)
        assert ours.bit_generator.state["state"]["counter"].tolist() == [0, 0, 0, 0]
        for draw in (
            lambda g: g.uniform(size=1000),
            lambda g: g.integers(0, 2**40, size=1000),
            lambda g: g.random(1000),
        ):
            got, want = draw(ours), draw(ref)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_generator_seeds_from_the_key_alone(self):
        # No SeedSequence (and so no OS entropy) stands behind the stream.
        assert isinstance(Rng(5, 6).generator().bit_generator._seed_seq, _PhiloxKey)

    # (2,) is numpy's default request: two uint32 words.
    @pytest.mark.parametrize("request_args", [
        (1, np.uint64), (3, np.uint64), (4, np.uint32), (2, np.uint32), (2, np.int64), (2,),
    ])
    def test_key_refuses_any_other_request(self, request_args):
        key = _PhiloxKey(1, 2**64 - 1)
        words = key.generate_state(2, np.uint64)
        assert words.dtype == np.uint64
        assert words.tolist() == [1, 2**64 - 1]
        with pytest.raises(ValueError, match="^the Philox key is two uint64 words"):
            key.generate_state(*request_args)


def _same_state(a, b) -> bool:
    """Equality of two bit-generator state dicts, array entries by dtype and value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b
