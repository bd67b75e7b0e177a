"""Two-timescale stochastic compositional optimizers.

Each step samples one inner index j and one outer index i uniformly with
replacement, advances the inner tracker

    SCGD:  y <- (1 - beta) * y + beta * g_j(x)
    SCSC:  y <- (1 - beta) * (y + g_j(x) - g_j(x_prev)) + beta * g_j(x)

and then takes the projected chain-rule step

    x <- project_ball(x - eta * jac_j(x) @ grad f_i(y), radius).

Step sizes are constant over a run; ``_run_with_indices`` is the one
implementation of the step, and ``_draw_indices`` the one draw of a
run's indices, which coupled runs share.  Outputs can be the last
iterate, the uniform average of all iterates, a geometrically weighted
average suited to strongly convex objectives, or a uniformly drawn
iterate.

The step loop carries only the recurrence above, in blocks of at most
``BLOCK_STEPS`` steps whose iterates (and tracker values, when tracking
is recorded) it writes into a block buffer.  One pass after each block
derives the rest in step order, with the same floating-point operations
a per-step update would do: running sum, stored iterates, uniform draw,
geometric average and tracking gaps.  Working memory is O(block), plus
the length-T tracking array when it is requested.  The loop uses
``ndarray.dot``, per-run lists of the data rows and same-shape step-size
arrays on purpose: ``@``, numpy scalar indexing and Python-float
operands give the same bits but cost microseconds more per step.  For
the same reason it calls ``np.add`` and the other ufuncs through local
names, bound once per run (``np.add`` is a global and an attribute
lookup on each of its 6 to 9 calls per step), and it zips over slices
of per-run lists of the block buffers' row views (slicing the buffer
itself makes a new ndarray view for every step).

A step allocates nothing: each run allocates its step buffers once
(``w = [s, g, g_prev]``, the residual ``r``, the step ``dx`` and
``prod``) and every numpy call writes into one through ``out=``.  The
tracker's products ``(1 - beta) * s`` and ``beta * g``, with ``s = y``
(SCGD) or ``(y + g) - g_prev`` (SCSC), are one multiply of ``u = [s, g]``
by ``coef = [1 - beta, beta]`` (each repeated d times), and SCSC adds
the offset to both inner values with one add of ``[b_j, b_j]`` to
``[g, g_prev]``: the same IEEE operations in fewer calls.  Numpy
dispatch, about half a microsecond per call, is most of a step, so the
count matters: 8 calls for SCGD (9 when recording the tracker, which is
copied into ``u``) and 11 for SCSC.

The ball pre-test ``x.dot(x) > R^2`` is not in that count.  The loop
runs each block without it, then one stacked ``np.matmul`` computes
every iterate's ``x.dot(x)`` with the same ddot the pre-test runs.  If
none exceeds ``R^2`` the pre-test would have fired on no step, and the
block stands.  Otherwise (and a NaN iterate fails the same test) the
loop restores the block's starting state (``x``, ``x_prev`` and the
tracker) and replays it with the pre-test, and ``project_ball`` where it
fires, after every step; the rest of the run keeps the per-step test.
So a run whose projection fires computes one block of at most
``BLOCK_STEPS = 256`` steps twice.  The replay is exact, down to the
step at which a run warns or raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Rng, _norm, as_vector, project_ball
from .problems import Dataset

__all__ = [
    "Variant",
    "OptimizerConfig",
    "Trajectory",
    "run",
    "schedule_preset",
]

OUTPUT_MODES = ("last", "uniform_average", "sigma_weighted", "uniform_random")

MAX_STORED_ITERATES = 4096
BLOCK_STEPS = 256
_FLOAT_MAX = np.finfo(float).max


class Variant(Enum):
    SCGD = "scgd"
    SCSC = "scsc"


@dataclass(frozen=True)
class OptimizerConfig:
    """Run parameters for :func:`run`.

    ``x0`` and ``y0`` default to the origin.  ``eta = 0`` is allowed as a
    degenerate no-movement run (the parameter vector never leaves ``x0``),
    which is occasionally useful as a zero-iteration stand-in.  A ``variant``
    given as its value (``"scsc"``) is stored as the enum; others raise ``ValueError``.
    """

    variant: Variant
    steps: int
    eta: float
    beta: float
    domain_radius: float = 10.0
    x0: np.ndarray | None = None
    y0: np.ndarray | None = None
    output_mode: str = "last"
    sigma: float | None = None
    record_tracking: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("eta must be a finite nonnegative real")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if not (np.isfinite(self.domain_radius) and self.domain_radius > 0):
            raise ValueError("invalid domain")
        if self.output_mode not in OUTPUT_MODES:
            raise ValueError(f"unknown output mode {self.output_mode!r}")
        if self.output_mode == "sigma_weighted":
            if self.sigma is None or not self.sigma > 0:
                raise ValueError("sigma_weighted output needs sigma > 0")
            if self.sigma * self.eta >= 2.0:
                raise ValueError("unstable weights")
        for name in ("x0", "y0"):
            if getattr(self, name) is not None:
                start = as_vector(getattr(self, name))
                if not np.isfinite(start).all():
                    raise ValueError(f"{name} must be finite")
                object.__setattr__(self, name, start)
        if self.x0 is not None and _norm(self.x0) > self.domain_radius * (1 + 1e-12):
            raise ValueError("x0 lies outside the domain")


@dataclass(frozen=True)
class Trajectory:
    """Recorded history of a run.

    ``stored_steps`` lists which iterates (1-based step numbers) are kept
    in ``iterates``; long runs are thinned to a uniform stride of at most
    4096 stored points, plus step T.  The running averages are exact
    regardless: they are derived from every iterate, block by block, after
    the step loop has produced it.  ``final_output`` is the output
    selected by the config's ``output_mode``.  ``tracking_sq_errors[t]``
    is the squared gap between the tracker and the empirical inner mean
    at the pre-step point, for t = 0 .. T-1.  No two fields share memory.
    """

    stored_steps: np.ndarray
    iterates: np.ndarray
    last: np.ndarray
    uniform_avg: np.ndarray
    final_output: np.ndarray
    tracking_sq_errors: np.ndarray | None


def _draw_indices(
    dataset: Dataset, cfg: OptimizerConfig, rng: Rng
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """A run's randomness, drawn up front from ``rng``: the inner index
    block, then the outer index block, then the uniform output draw when
    that mode is requested.  Coupled runs share one such draw."""
    gen = rng.generator()
    j_idx = gen.integers(0, dataset.m, size=cfg.steps, dtype=np.int64)
    i_idx = gen.integers(0, dataset.n, size=cfg.steps, dtype=np.int64)
    tau = None
    if cfg.output_mode == "uniform_random":
        tau = int(gen.integers(1, cfg.steps + 1))
    return j_idx, i_idx, tau


def run(dataset: Dataset, cfg: OptimizerConfig, rng: Rng) -> Trajectory:
    """Execute a full optimization run; deterministic given ``rng``."""
    return _run_with_indices(dataset, cfg, *_draw_indices(dataset, cfg, rng))


def _start_point(value: np.ndarray | None, dim: int, name: str, dim_name: str) -> np.ndarray:
    if value is None:
        return np.zeros(dim)
    if value.shape != (dim,):
        raise ValueError(
            f"{name} has length {value.shape[0]}, but the dataset needs {dim_name} = {dim}"
        )
    return value.copy()


def _tracking_sq_errors(dataset: Dataset, pre: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``||y_t - (a_bar x + b_bar)||^2`` for each row pair of ``ys`` and ``pre``.

    Stacked matmul runs, per row, the BLAS gemv and ddot that ndarray.dot
    runs; unlike .dot, it reports BLAS's invalid flag, hence the errstate.
    """
    with np.errstate(invalid="ignore"):
        gap = np.matmul(dataset.a_bar, pre[:, :, None])[:, :, 0]
        gap += dataset.b_bar
        np.subtract(ys, gap, out=gap)
        return np.matmul(gap[:, None, :], gap[:, :, None])[:, 0, 0]


def _leaves_ball(xs: np.ndarray, radius_sq: float) -> bool:
    """Whether, for any row of ``xs``, the pre-test ``x.dot(x) > radius_sq``
    holds or ``x.dot(x)`` is NaN.

    Stacked matmul runs, per row, the ddot that ndarray.dot runs.
    """
    return not (np.matmul(xs[:, None, :], xs[:, :, None]) <= radius_sq).all()


def _run_with_indices(
    dataset: Dataset,
    cfg: OptimizerConfig,
    j_idx: np.ndarray,
    i_idx: np.ndarray,
    tau: int | None,
) -> Trajectory:
    steps = cfg.steps
    p, d = dataset.p, dataset.d
    x = _start_point(cfg.x0, p, "x0", "p")
    y = _start_point(cfg.y0, d, "y0", "d")
    x_prev = x
    a_rows = list(dataset.inner_a)
    c_rows = list(dataset.outer_c)
    # Same-shape operands make each product the same IEEE multiply as a
    # Python-float one, without numpy's per-call scalar conversion.
    coef = np.array([1.0 - cfg.beta] * d + [cfg.beta] * d)
    eta = np.full(p, cfg.eta)
    radius = cfg.domain_radius
    # project_ball moves x only if ||x|| > R; as sqrt(fl(R * R)) == R unless
    # R * R underflows, this pre-test skips only points it would not move.
    # The clamp keeps that true when R * R overflows.
    radius_sq = min(radius * radius, _FLOAT_MAX)
    scsc = cfg.variant is Variant.SCSC and cfg.beta != 1.0
    b = dataset.inner_b
    b_rows = list(np.concatenate((b, b), axis=1) if scsc else b)  # SCSC: [b_j, b_j]
    # Per-run step buffers, w = [s, g, g_prev].  y = coef[:d] * s + coef[d:] * g,
    # with s = y (SCGD) or (y + g) - g_prev (SCSC), is one multiply on
    # u = [s, g]; SCSC adds b_j to both inner values in one add on gg = [g, g_prev].
    w = np.empty(3 * d)
    u, gg = w[: 2 * d], w[d:]
    s, g, g_prev = w[:d], w[d : 2 * d], w[2 * d :]
    prod = np.empty(2 * d)
    prod_s, prod_g = prod[:d], prod[d:]
    r = np.empty(d)
    dx = np.empty(p)
    if not scsc:
        # SCGD's s is y: untracked, y updates inside u; tracked, each step
        # copies the previous tracker row in.
        s[:] = y
        y = s

    # Row 0 of xs holds the iterate a block starts from, row t the iterate
    # after the block's step t; ys row t - 1 holds the tracker after step t.
    block = min(steps, BLOCK_STEPS)
    xs = np.empty((block + 1, p))
    x_rows = list(xs)
    track = ys = None
    if cfg.record_tracking:
        track = np.empty(steps)
        ys = np.empty((block, d))
        y_rows = list(ys)
    stride = -(-steps // MAX_STORED_ITERATES)  # ceil division
    # The last multiple of the stride is at or past T; T itself is stored.
    stored_steps = np.arange(stride, steps + stride, stride, dtype=np.int64)
    stored_steps[-1] = steps
    iterates = np.empty((stored_steps.size, p))
    usum = np.zeros(p)
    sigma_mode = cfg.output_mode == "sigma_weighted"
    if sigma_mode:
        rho = float(1.0 - cfg.sigma * cfg.eta / 2.0)
        wacc = [0.0] * (p + 1)  # the weighted sum of x, then the sum of the weights
    drawn_iterate = None

    add, subtract, multiply, copyto = np.add, np.subtract, np.multiply, np.copyto
    # A huge step may overflow ||x||^2 to inf; the pre-test then fires and
    # project_ball handles it, so numpy's overflow warning is noise.
    checked = False
    with np.errstate(over="ignore"):
        for start in range(0, steps, block):
            stop = min(start + block, steps)
            k = stop - start
            xs[0] = x
            if ys is None:
                y_rows = [y] * k  # untracked: y updates in place
            # The block's starting state: x is xs[0], which the pass never
            # writes, and only y's contents can change under the rest.
            x_prev_start, y_start, y_saved = x_prev, y, y.copy()
            while True:
                x, x_prev, y = xs[0], x_prev_start, y_start
                # An unchecked pass may run on past a step the pre-test would
                # have projected, or past an invalid operation: every value a
                # step computes (g, g_prev, s, prod, y, r, dx) feeds that step's
                # x, so the operation leaves NaN in x, which fails the ball test
                # as an overflow to inf does.  The checked replay, under the
                # caller's errstate, then warns or raises where a per-step loop would.
                with np.errstate(invalid=None if checked else "ignore"):
                    for j, i, x_out, y_out in zip(
                        j_idx[start:stop].tolist(),
                        i_idx[start:stop].tolist(),
                        x_rows[1 : k + 1],
                        y_rows,
                    ):
                        a_j = a_rows[j]
                        a_j.dot(x, g)
                        if scsc:
                            a_j.dot(x_prev, g_prev)
                            add(gg, b_rows[j], gg)
                            add(y, g, s)
                            subtract(s, g_prev, s)
                        else:
                            add(g, b_rows[j], g)
                            if y is not s:
                                copyto(s, y)
                        multiply(coef, u, prod)
                        y = add(prod_s, prod_g, y_out)
                        subtract(y, c_rows[i], r)
                        r.dot(a_j, dx)
                        multiply(eta, dx, dx)
                        x_prev = x
                        x = subtract(x, dx, x_out)
                        if checked and x.dot(x) > radius_sq:
                            try:
                                x[...] = project_ball(x, radius)
                            except ValueError:
                                # A NaN x fails the pre-test, so x holds an inf.
                                raise ValueError(
                                    "the step x - eta * gradient overflowed to inf "
                                    f"(eta = {cfg.eta:g}); use a smaller eta"
                                ) from None
                    if checked or not _leaves_ball(xs[1 : k + 1], radius_sq):
                        break
                # The pre-test would have fired in this block, or an iterate
                # is NaN: replay it, and the rest of the run, with the test
                # after every step.
                checked = True
                np.copyto(y_start, y_saved)
            # Both are rows of xs, which the sum below and the next block rewrite.
            x_prev, x = x_prev.copy(), x.copy()

            # Everything below is derived from the block's iterates, in step order.
            if track is not None:
                track[start:stop] = _tracking_sq_errors(dataset, xs[:k], ys[:k])
            on_stride = xs[stride - start % stride : k + 1 : stride]
            iterates[start // stride : stop // stride] = on_stride
            if tau is not None and start < tau <= stop:
                drawn_iterate = xs[tau - start].copy()
            if sigma_mode:
                # Rounds exactly like wacc *= rho; wacc += [x, 1], one coordinate at a time.
                for c, col in enumerate([*xs[1 : k + 1].T.tolist(), [1.0] * k]):
                    w = wacc[c]
                    for v in col:
                        w = rho * w + v
                    wacc[c] = w
            # accumulate adds row by row for every p; reduce sums pairwise when
            # p = 1.  In place, it needs no memory.
            xs[0] = usum
            np.add.accumulate(xs[: k + 1], axis=0, out=xs[: k + 1])
            usum = xs[k].copy()

    iterates[-1] = x
    uniform_avg = usum / steps
    if cfg.output_mode == "last":
        final = x.copy()
    elif cfg.output_mode == "uniform_average":
        final = uniform_avg.copy()
    elif sigma_mode:
        final = np.array(wacc[:p]) / wacc[p]
    else:
        final = drawn_iterate

    return Trajectory(
        stored_steps=stored_steps,
        iterates=iterates,
        last=x,
        uniform_avg=uniform_avg,
        final_output=final,
        tracking_sq_errors=track,
    )


# preset regime -> variant -> (iteration exponent, eta exponent, beta exponent)
_PRESETS = {
    "convex": {Variant.SCGD: (3.5, 6.0 / 7.0, 4.0 / 7.0),
               Variant.SCSC: (2.5, 4.0 / 5.0, 4.0 / 5.0)},
    "strongly_convex": {Variant.SCGD: (5.0 / 3.0, 9.0 / 10.0, 3.0 / 5.0),
                        Variant.SCSC: (7.0 / 6.0, 6.0 / 7.0, 6.0 / 7.0)},
}


def schedule_preset(
    variant: Variant | str,
    convexity: str,
    n: int,
    m: int,
    t_max: int | None = None,
) -> tuple[int, float, float]:
    """Published (T, eta, beta) rule for the requested regime, a key of ``_PRESETS``.

    T = ceil(max(n, m) ** exponent) with eta = T^-a and beta = T^-b; the
    optional ``t_max`` caps T (the step sizes then follow the capped T).
    Without a cap, a T beyond the float range raises ``ValueError``.
    """
    if convexity not in _PRESETS:
        raise ValueError(f"unknown convexity {convexity!r}")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if t_max is not None and t_max < 1:
        raise ValueError("t_max must be >= 1")
    exponent, a, b = _PRESETS[convexity][Variant(variant)]
    try:
        # Guard against pow() landing an ulp above an exact integer.
        steps = int(math.ceil(float(max(n, m)) ** exponent - 1e-9))
    except OverflowError:  # float(), ** or int() past the float range
        if t_max is None:
            raise ValueError(
                f"the preset horizon max(n, m) ** {exponent:.4g} is beyond the float range "
                f"at n={n}, m={m}; cap it with t_max"
            ) from None
        steps = int(t_max)
    if t_max is not None:
        steps = min(steps, int(t_max))
    return steps, float(steps) ** -a, float(steps) ** -b
