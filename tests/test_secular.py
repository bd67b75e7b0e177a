"""The secular solve equals the threshold reference byte for byte.

``trust_region._secular_point`` returns the point at the exact float
threshold of its norm test ``||x(mu)|| > radius``: the least float ``t`` in
``(0, H]`` where the test is false, or ``H`` where it is true on the whole
interval.  It finds ``t`` with Newton steps and a search on the float
bits.  These tests hold it to the plain bisection over float bit patterns
in ``secular_reference.py`` on every solve the bound constants and the
minimizer certificates make over a grid of datasets, and on synthetic
batches that reach each path; on the grid it must also equal the plain
halving of ``(0, H]``.  They pin no output, so they must hold on every
BLAS core (the eigendecompositions feeding them differ by core).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scolab import problems, trust_region
from scolab.core import Rng
from scolab.oracle import erm_minimizer, population_minimizer
from secular_reference import halving_secular_point, threshold_secular_point

# Every test here must pass on every OpenBLAS core type.
pytestmark = pytest.mark.blas_portable

SIZES = (1, 2, 3, 5, 8, 13, 21, 34, 55, 80)
RNG = Rng(8817)


def assert_matches(w, shift, radius, *references):
    """The solve equals each reference byte for byte and warns of nothing;
    returns the solve."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = trust_region._secular_point(w, shift, radius)
    for reference in (threshold_secular_point, *references):
        want = reference(w, shift, radius)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), reference.__name__
    return got


class Spy:
    """Counts the stacked tests of each solve."""

    def __init__(self, monkeypatch):
        self.tests = 0
        outside = trust_region._outside

        def counted_outside(*args):
            self.tests += 1
            return outside(*args)

        monkeypatch.setattr(trust_region, "_outside", counted_outside)


@pytest.mark.parametrize("radius", [0.1, 0.3, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("kind", ["convex", "strongly_convex"])
def test_every_solve_of_the_constants_and_certificates(monkeypatch, kind, radius):
    calls = []
    solve = trust_region._secular_point

    def recorded(w, shift, r):
        calls.append((w.copy(), np.array(shift), r))
        return solve(w, shift, r)

    monkeypatch.setattr(trust_region, "_secular_point", recorded)
    law = problems.benchmark_law(kind)
    population_minimizer(law, radius)
    for n in SIZES:
        for m in SIZES:
            data = problems.sample_dataset(law, n, m, RNG.split(f"grid-{kind}-{n}-{m}"))
            problems.compute_constants(data, radius)
            erm_minimizer(data, radius)
    monkeypatch.undo()
    assert len(calls) >= len(SIZES) ** 2
    for w, shift, r in calls:
        assert_matches(w, shift, r, halving_secular_point)


def near_hard_rows(exponents, radius=1.5):
    """Rows (w, shift) of p = 3 whose threshold is about H 2^-j: the top
    entry (shift 0) carries eps, and the rest of x stays inside the ball."""
    shift = np.array([0.0, 0.7, 1.3])
    tail = np.array([0.4, -0.9])
    inner = np.linalg.norm(tail / shift[1:])
    h = np.linalg.norm(tail) / radius
    rows = [[h * 2.0**-j * np.sqrt(radius**2 - inner**2), *tail] for j in exponents]
    return np.array(rows), np.broadcast_to(shift, (len(rows), 3)).copy(), radius


class TestSyntheticBatches:
    def test_zero_rows(self):
        w = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-170, -1e-170, 0.0], [0.3, -0.2, 0.1]])
        shift = np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 0.0], [0.0, 1.0, 1.0], [0.0, 0.1, 0.2]])
        assert_matches(w, shift, 0.5)
        # A zero entry may carry a negative shift (a rank-deficient gram's
        # noise eigenvalue); here its denominator vanishes at the threshold.
        assert_matches(np.array([0.0, 1.0]), np.array([-1.0, 0.5]), 1 / 1.5)

    def test_exact_hard_case(self):
        # No weight on the top direction: inside the ball at mu -> 0 (the
        # threshold is the least float) or outside it (a root).
        w = np.array([[0.0, 0.2, 0.1], [0.0, 3.0, -2.0], [-0.0, 0.2, 0.1]])
        shift = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        got = assert_matches(w, shift, 1.0)
        least = np.nextafter(0.0, 1.0)
        for i in (0, 2):
            assert got[i].tobytes() == (w[i] / (least + shift[i])).tobytes()

    def test_near_hard_case_lands_on_the_sphere(self):
        # Thresholds from H 2^-30 to H 2^-200.  A 100-step halving of
        # (0, H] closes on t down to about H 2^-49 and stops short of it
        # below, inside the ball; the threshold point is on the sphere.
        exponents = [30, 38, 39, 40, 41, 42, 45, 48, 49, 50, 51, 55, 60, 90, 99, 100, 101, 110, 200]
        w, shift, radius = near_hard_rows(exponents)
        norms = np.linalg.norm(assert_matches(w, shift, radius), axis=-1)
        assert np.all(norms <= radius)
        assert np.all(norms / radius - 1.0 >= -1e-15)

    def test_rows_whose_test_holds_at_h(self):
        # All shifts 0: x(H) = w r / ||w||, whose norm rounds above r on
        # some rows, where the bisection never moves off H.
        gen = RNG.split("at-h").generator()
        w = gen.normal(size=(400, 4))
        shift = np.zeros((400, 4))
        radius = 0.7
        x = w / (np.linalg.norm(w, axis=-1) / radius)[:, None]
        assert np.any(np.linalg.norm(x, axis=-1) > radius)
        assert_matches(w, shift, radius)

    def test_one_dimensional_input(self):
        gen = RNG.split("1d").generator()
        for p in (1, 2, 5):
            for _ in range(20):
                w = gen.normal(size=p)
                shift = np.sort(gen.uniform(0.0, 2.0, size=p))
                assert_matches(w, shift, float(gen.uniform(0.05, 3.0)))

    def test_p_equal_one(self):
        gen = RNG.split("p1").generator()
        w = gen.normal(size=(200, 1))
        assert_matches(w, np.zeros((200, 1)), 0.3)
        assert_matches(w, gen.uniform(0.0, 1.0, size=(200, 1)), 0.3)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_scales(self, scale):
        # w and shift scaled alike keep mu / shift, so only the exponents move.
        gen = RNG.split("scale").generator()
        w = gen.normal(size=(60, 4))
        shift = gen.uniform(0.0, 2.0, size=(60, 4))
        shift[:, -1] = 0.0
        assert_matches(w * scale, shift * scale, 0.8)
        assert_matches(w, shift, 0.8 / scale)

    def test_threshold_at_the_least_float(self):
        # H = 1e-300 and the test is false on all of (0, H]: the threshold
        # is the least subnormal, where the -0.0 entry stays -0.0 (a
        # halving that tests mu = 0 itself gives +0.0 there).
        w = np.array([[-0.0, 1e-150, 0.0]])
        shift = np.array([[0.0, 1.0, 1.0]])
        got = assert_matches(w, shift, 1e150)
        assert np.signbit(got[0, 0])

    def test_window_miss_is_searched(self, monkeypatch):
        # A strongly convex boundary minimizer (n = 1, m = 3, R = 1) whose
        # Newton iterate stalls 9 ulps above the threshold, one past the
        # window: the 17-way search finds it.
        w = np.array([1.3599327239727463, 1.3047071977162894,
                      -0.17698985116985044, -0.6429715497234241])
        shift = np.array([1.5953930155307736, 1.8255000969405704,
                          2.1950882965400984, 2.5912014613742334])
        spy = Spy(monkeypatch)
        assert_matches(w, shift, 1.0)
        assert spy.tests > 1


@st.composite
def psd_batches(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    k, d, p = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    gen = np.random.default_rng(seed)
    b = gen.normal(size=(k, d, p)) * np.exp(gen.uniform(-3.0, 3.0, size=(k, 1, 1)))
    vec = gen.normal(size=(k, p)) * np.exp(gen.uniform(-4.0, 2.0, size=(k, 1)))
    rank_one = gen.random(k) < 0.3
    b[rank_one, 1:] = 0.0
    return np.einsum("kdp,kdq->kpq", b, b), vec, float(np.exp(draw(st.floats(-4.0, 4.0))))


class TestRandomPsdBatches:
    @given(psd_batches())
    @settings(max_examples=150, deadline=None)
    def test_sup_problems(self, batch):
        mat, vec, radius = batch
        eigvals, eigvecs = np.linalg.eigh(mat)
        w = np.einsum("...pq,...p->...q", eigvecs, vec)
        assert_matches(w, eigvals[..., -1:] - eigvals, radius)

    @given(psd_batches())
    @settings(max_examples=150, deadline=None)
    def test_min_problems(self, batch):
        mat, vec, radius = batch
        eigvals, eigvecs = np.linalg.eigh(mat[0])
        kept = eigvals > max(float(eigvals[-1]), 1.0) * 1e-12
        w = np.where(kept, eigvecs.T @ (mat[0] @ vec[0]), 0.0)
        assert_matches(w, eigvals, radius)
