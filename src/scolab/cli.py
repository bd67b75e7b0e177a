"""Command-line front end.

Subcommands cover the gradient check, single optimization runs, the
three studies, stability estimation, the schedule presets, and the
minimizer oracles.  All randomness flows from ``--seed`` (default 0,
never wall-clock).  Every flag is declared once, in :data:`COMMANDS`;
that table builds the argument parser, reads the ``--config`` file and
validates every value.  A config file holds flat ``flag=value`` lines
keyed by the flag names (``-`` and ``_`` interchangeable); explicit
flags win over the file and the file over the defaults.  Exit codes: 0
on success, 1 when an asserted check fails or output cannot be written,
2 on usage errors, including a config key the subcommand does not
accept, and on sizes too large to allocate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import Rng, _norm, project_ball
from .experiments import _sigma, excess_risk_study, fit_loglog_slope, optimization_study
from .experiments import tracking_study
from .optimizer import _FLOAT_MAX, _PRESETS, OUTPUT_MODES, OptimizerConfig, Variant
from .optimizer import run, schedule_preset
from .oracle import erm_minimizer, fd_gradient_check, population_minimizer
from .problems import _BENCHMARKS, benchmark_law, empirical_risk, sample_dataset
from .reporting import emit_csv, emit_svg, format_value
from .stability import estimate_stability

__all__ = ["main", "parse_and_dispatch"]


# Value parsers: each maps (flag name, raw value) to a validated value or
# raises ValueError.  Raw values are strings from argv or the config file,
# or the table's own defaults.


def _number(kind, minimum, strict=False, maximum=np.inf):
    def parse(name, value):
        try:
            number = kind(value)
            float(number)
        except (TypeError, ValueError):
            noun = "an integer" if kind is int else "a real number"
            raise ValueError(f"{name} must be {noun}") from None
        except OverflowError:
            raise ValueError(f"{name} is out of range") from None
        if kind is float and not np.isfinite(number):
            raise ValueError(f"{name} must be finite")
        if strict and not number > minimum:
            raise ValueError(f"{name} must be > {minimum}")
        if not number >= minimum:
            raise ValueError(f"{name} must be >= {minimum}")
        if not number <= maximum:
            raise ValueError(f"{name} must be <= {maximum}")
        return number

    return parse


def _integers(name, value):
    """Nonempty comma-separated list of positive integers."""
    try:
        numbers = [int(part) for part in str(value).split(",") if part != ""]
        float(max(numbers, default=0))
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of integers") from None
    except OverflowError:
        raise ValueError(f"{name} is out of range") from None
    if not numbers:
        raise ValueError(f"{name} must be nonempty")
    if min(numbers) < 1:
        raise ValueError(f"{name} entries must be >= 1")
    return numbers


def _choice(*options):
    def parse(name, value):
        if value not in options:
            raise ValueError(f"{name} must be one of {', '.join(options)}")
        return value

    return parse


def _boolean(name, value):
    word = str(value).lower()
    if word not in ("true", "false", "1", "0"):
        raise ValueError(f"{name} must be true, false, 1 or 0")
    return word in ("true", "1")


class Flag(NamedTuple):
    """One flag: its parser, its default and its help line."""

    parse: Callable[[str, Any], Any]
    default: Any
    help: str


def load_config_file(path) -> dict[str, str]:
    """Flat flag=value file, one pair per line, '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scolab",
        description="Stochastic compositional optimization lab",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, (summary, _, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flag=value config file")
        for name, flag in flags.items():
            options = {"dest": name, "help": flag.help}
            if flag.parse is _boolean:
                options.update(action="store_const", const="true")
            elif flag.default is not None:
                options["help"] += f" (default {flag.default})"
            p.add_argument(f"--{name}", **options)
    return parser


def _resolve(flags, args, config) -> dict[str, Any]:
    """Validated value of every flag: argv over the config file over the default."""
    given = {key.replace("_", "-"): value for key, value in config.items()}
    for key in config:
        if key.replace("_", "-") not in flags:
            raise ValueError(f"unknown config key {key!r} for {args.command}")
    values: dict[str, Any] = {}
    for name, flag in flags.items():
        raw = vars(args)[name]
        if raw is None:
            raw = given.get(name, flag.default)
        values[name] = None if raw is None else flag.parse(name, raw)
    return values


def _emit(o, header, rows, title, x_values, series, log_axes=True):
    """Write the CSV to ``--out`` and, with ``--svg``, a chart beside it."""
    out = o["out"]
    emit_csv(out, header, rows)
    if o["svg"]:
        if log_axes:  # a log axis draws an exact zero at 1e-300
            series = {key: [max(v, 1e-300) for v in values] for key, values in series.items()}
        svg_path = out[: -len(".csv")] + ".svg" if out.endswith(".csv") else out + ".svg"
        emit_svg(svg_path, title, x_values, series, log=log_axes)


def cmd_gradcheck(o) -> int:
    radius = o["radius"]
    rng = Rng(o["seed"]).split("gradcheck")
    data = sample_dataset(benchmark_law(o["benchmark"]), o["n"], o["m"], rng.split("data"))
    gen = rng.split("points").generator()
    errors = []
    for _ in range(o["points"]):
        x = project_ball(gen.uniform(-radius, radius, size=data.p), radius)
        errors.append(fd_gradient_check(data, x, o["h"]))
    worst = float(np.max(errors))  # NaN if any point's error is NaN
    print(f"max_relative_error={format_value(worst)}")
    if not worst < o["assert"]:
        print(f"gradcheck failed: max relative error {worst:.3e} is not below {o['assert']:.3e}",
              file=sys.stderr)
        return 1
    return 0


def cmd_schedule(o) -> int:
    steps, eta, beta = schedule_preset(o["variant"], o["convexity"], o["n"], o["m"], o["t-max"])
    print(f"T={steps} eta={format_value(eta)} beta={format_value(beta)}")
    return 0


def cmd_optimize(o) -> int:
    rng = Rng(o["seed"]).split("optimize")
    data = sample_dataset(benchmark_law(o["benchmark"]), o["n"], o["m"], rng.split("data"))
    sigma = _sigma(o["output-mode"], data.a_bar)
    cfg = OptimizerConfig(variant=o["variant"], steps=o["T"], eta=o["eta"], beta=o["beta"],
                          domain_radius=o["radius"], output_mode=o["output-mode"], sigma=sigma,
                          record_tracking=True)
    traj = run(data, cfg, rng.split("run"))
    rows = [
        (int(t), empirical_risk(data, x), float(traj.tracking_sq_errors[t - 1]), _norm(x))
        for t, x in zip(traj.stored_steps, traj.iterates)
    ]
    _emit(o, ["t", "f_empirical", "tracking_sq_error", "x_norm"], rows, "empirical objective",
          [r[0] for r in rows], {"f_empirical": [r[1] for r in rows]}, log_axes=False)
    record = {"mode": o["output-mode"], "T": o["T"], "eta": o["eta"], "beta": o["beta"]}
    if sigma is not None:  # derived from the data, so no flag shows it
        record["sigma"] = sigma
    record["x"] = [float(v) for v in traj.final_output]
    print(json.dumps(record))
    return 0


def cmd_oracle(o) -> int:
    law = benchmark_law(o["benchmark"])
    data = sample_dataset(law, o["n"], o["m"], Rng(o["seed"]).split("oracle-data"))
    erm = erm_minimizer(data, o["radius"])
    pop = population_minimizer(law, o["radius"])
    for tag, cert in (("empirical", erm), ("population", pop)):
        coords = ",".join(format_value(v) for v in cert.x_star)
        print(
            f"{tag} value={format_value(cert.value)} method={cert.method} "
            f"kkt_residual={format_value(cert.kkt_residual)} x=[{coords}]"
        )
    return 0


def cmd_tracking(o) -> int:
    rows = tracking_study(
        variant=o["variant"], law=o["benchmark"], n=o["n"], m=o["m"], steps=o["T"],
        eta=o["eta"], beta=o["beta"], replicates=o["replicates"], seed=o["seed"],
        domain_radius=o["radius"], log_points=o["log-points"],
    )
    _emit(o, ["t", "mean_sq_error", "se", "bound"], rows, "tracking gap vs ceiling",
          [r.t for r in rows],
          {"mean_sq_error": [r.mean_sq_error for r in rows], "bound": [r.bound for r in rows]})
    print(f"wrote {o['out']}", file=sys.stderr)
    return 0


def cmd_stability(o) -> int:
    law = benchmark_law(o["benchmark"])
    opt_cfg = OptimizerConfig(
        variant=o["variant"],
        steps=o["T"],
        eta=o["eta"],
        beta=o["beta"],
        domain_radius=o["radius"],
    )
    rows = []
    for n in o["n"]:
        for m in o["m"]:
            rng = Rng(o["seed"]).split(f"stability-{n}-{m}")
            est = estimate_stability(law, n, m, opt_cfg, o["replicates"], rng)
            cell = (o["variant"], o["benchmark"], n, m, o["T"], o["eta"], o["beta"], o["replicates"])
            rows.append(cell + (est.eps_nu, est.eps_nu_se, est.eps_omega, est.eps_omega_se))
    header = ["variant", "convexity", "n", "m", "T", "eta", "beta", "replicates",
              "eps_nu_hat", "eps_nu_se", "eps_omega_hat", "eps_omega_se"]
    _emit(o, header, rows, "replacement sensitivity",
          [row[2] for row in rows], {"eps_nu_hat": [row[8] for row in rows]})
    print(f"wrote {o['out']}", file=sys.stderr)
    return 0


def cmd_optimization(o) -> int:
    grid = []
    for t in o["T-grid"]:
        eta = o["eta"] if o["eta-exp"] is None else float(t) ** -o["eta-exp"]
        beta = o["beta"] if o["beta-exp"] is None else float(t) ** -o["beta-exp"]
        grid.append((t, eta, beta))
    rows = optimization_study(
        step_grid=tuple(grid), variant=o["variant"], law=o["benchmark"], n=o["n"],
        m=o["m"], replicates=o["replicates"], seed=o["seed"], domain_radius=o["radius"],
        output_mode=o["output-mode"],
    )
    _emit(o, ["T", "eta", "beta", "gap_mean", "gap_se"], rows, "empirical suboptimality",
          [r.steps for r in rows], {"gap_mean": [r.gap_mean for r in rows]})
    print(f"wrote {o['out']}", file=sys.stderr)
    return 0


def cmd_excess_risk(o) -> int:
    convexity = o["convexity"] or o["benchmark"]
    strongly_convex = o["benchmark"] == convexity == "strongly_convex"
    mode = o["output-mode"] or ("sigma_weighted" if strongly_convex else "uniform_average")
    rows = excess_risk_study(
        size_grid=tuple(o["sizes"]), variant=o["variant"], convexity=convexity,
        law=o["benchmark"], replicates=o["replicates"], seed=o["seed"],
        domain_radius=o["radius"], output_mode=mode, t_max=o["t-max"],
    )
    sizes, means = [r.n for r in rows], [r.excess_mean for r in rows]
    try:
        slope = fit_loglog_slope(sizes, means)
    except ValueError:  # one distinct size, or a mean that is not finite and positive
        slope = float("nan")
    header = ["n", "m", "T", "eta", "beta", "excess_mean", "excess_se", "fitted_slope"]
    _emit(o, header, [list(r) + [None] for r in rows] + [[None] * 7 + [slope]],
          "population excess risk", sizes, {"excess_mean": means})
    print(f"wrote {o['out']}", file=sys.stderr)
    return 0


# The flag table.  Per subcommand: help line, handler, and every flag it
# accepts, in help order.  Flags shared by several subcommands are bound
# to names first.
_COUNT = _number(int, 1)
_POSITIVE = _number(float, 0.0, strict=True)
_STUDY_MODES = tuple(mode for mode in OUTPUT_MODES if mode != "uniform_random")
_SEED = Flag(_number(int, 0), 0, "base random seed")
_RADIUS = Flag(_POSITIVE, 10.0, "domain ball radius")
_SEEDED = {"seed": _SEED, "radius": _RADIUS}
_DATA = {
    "benchmark": Flag(_choice(*_BENCHMARKS), "convex", "benchmark law"),
    "n": Flag(_COUNT, 40, "number of outer samples"),
    "m": Flag(_COUNT, 40, "number of inner samples"),
}
_VARIANT = Flag(_choice(*(v.value for v in Variant)), "scgd", "optimizer variant")
_STEPS = {
    "eta": Flag(_number(float, 0.0), 1e-3, "step size"),
    "beta": Flag(_number(float, 0.0, strict=True, maximum=1.0), 0.1, "tracking weight in (0, 1]"),
}
_T_MAX = Flag(_COUNT, None, "cap on the preset horizon")


def _csv(path):
    return {
        "out": Flag(lambda name, value: value, path, "output CSV path"),
        "svg": Flag(_boolean, False, "also write an SVG chart"),
    }


COMMANDS: dict[str, tuple[str, Callable[[dict], int], dict[str, Flag]]] = {
    "gradcheck": ("finite-difference gradient check", cmd_gradcheck, {
        **_SEEDED,
        # Points are drawn from uniform(-radius, radius), whose width must be finite.
        "radius": _RADIUS._replace(parse=_number(float, 0.0, strict=True, maximum=_FLOAT_MAX / 2)),
        **_DATA,
        "points": Flag(_COUNT, 20, "number of test points"),
        "h": Flag(_POSITIVE, 1e-5, "central difference step"),
        "assert": Flag(_POSITIVE, 1e-5, "fail (exit 1) above this max relative error"),
    }),
    "schedule": ("print the published (T, eta, beta) preset", cmd_schedule, {
        "variant": _VARIANT,
        "convexity": Flag(_choice(*_PRESETS), "convex", "convexity regime of the preset"),
        "n": _DATA["n"],
        "m": _DATA["m"],
        "t-max": _T_MAX,
    }),
    "optimize": ("run one optimization and export the trajectory", cmd_optimize, {
        **_SEEDED,
        **_csv("trajectory.csv"),
        "variant": _VARIANT,
        **_DATA,
        "T": Flag(_COUNT, 1000, "number of steps"),
        **_STEPS,
        "output-mode": Flag(_choice(*OUTPUT_MODES), "last",
                            "which iterate to report; sigma_weighted uses the empirical modulus"),
    }),
    "tracking": ("tracking-gap study against its ceiling", cmd_tracking, {
        **_SEEDED,
        **_csv("tracking.csv"),
        "variant": _VARIANT,
        **_DATA,
        "T": Flag(_COUNT, 5000, "number of steps"),
        **_STEPS,
        "replicates": Flag(_number(int, 2), 50, "Monte Carlo replicates"),
        "log-points": Flag(_COUNT, 40, "number of log-spaced report steps"),
    }),
    "stability": ("coupled replacement-sensitivity estimates", cmd_stability, {
        **_SEEDED,
        "threads": Flag(_COUNT, 1, "has no effect: replicates run serially"),
        **_csv("stability.csv"),
        "variant": _VARIANT,
        "benchmark": _DATA["benchmark"],
        "n": Flag(_integers, "40", "comma-separated outer sizes"),
        "m": Flag(_integers, "40", "comma-separated inner sizes"),
        "T": Flag(_COUNT, 2048, "number of steps"),
        **_STEPS,
        "replicates": Flag(_number(int, 2), 100, "Monte Carlo replicates"),
    }),
    "optimization": ("empirical suboptimality study", cmd_optimization, {
        **_SEEDED,
        **_csv("optimization.csv"),
        "variant": _VARIANT,
        **_DATA,
        "T-grid": Flag(_integers, "256,1024,4096", "comma-separated T values"),
        **_STEPS,
        "eta-exp": Flag(_POSITIVE, None, "use eta = T^-a instead of --eta"),
        "beta-exp": Flag(_POSITIVE, None, "use beta = T^-b instead of --beta"),
        "output-mode": Flag(_choice(*_STUDY_MODES), "uniform_average", "which iterate to report"),
        "replicates": Flag(_number(int, 2), 50, "Monte Carlo replicates"),
    }),
    "excess-risk": ("population excess-risk study at the presets", cmd_excess_risk, {
        **_SEEDED,
        **_csv("excess.csv"),
        "variant": _VARIANT,
        "benchmark": _DATA["benchmark"],
        "convexity": Flag(_choice(*_PRESETS), None, "convexity label (default: the benchmark)"),
        "sizes": Flag(_integers, "20,40,80", "comma-separated n = m values"),
        "replicates": Flag(_number(int, 2), 200, "Monte Carlo replicates"),
        "t-max": _T_MAX,
        "output-mode": Flag(_choice(*_STUDY_MODES), None,
                            "which iterate to report (default: sigma_weighted when the "
                            "benchmark and the convexity are both strongly_convex)"),
    }),
    "oracle": ("print certified empirical and population minimizers", cmd_oracle, {
        **_SEEDED,
        **_DATA,
    }),
}


def parse_and_dispatch(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        print("missing subcommand; see scolab --help", file=sys.stderr)
        return 2
    _, handler, flags = COMMANDS[args.command]
    try:
        config = load_config_file(args.config) if args.config else {}
        return handler(_resolve(flags, args, config))
    except ValueError as exc:
        # a bad flag value and a failed module precondition are both usage errors
        print(str(exc), file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
