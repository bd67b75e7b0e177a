"""Trace sites in scolab's modules and the per-layer metrics derived from them.

The layers are the modules of ``src/scolab``.  Every site is a module
attribute through which another module (or the benchmark) calls into a
layer; ``Rng`` methods are patched on the class, which every module
shares.  ``optimizer.kernel`` is the ``_run_with_indices`` entry that
``coupled_run`` calls; ``optimizer.run`` draws its index stream and then
runs the same kernel.
"""

from __future__ import annotations

import os
import statistics


def flops_per_step(d: int, p: int, cfg) -> int:
    """Floating-point operations of one step of the scalar kernel, counted from its source."""
    scsc = cfg.variant.value == "scsc" and cfg.beta != 1.0
    flops = 2 * d * p + d  # g_cur = a_j @ x + b_j
    flops += (2 * d * p + d + 5 * d) if scsc else 3 * d  # tracker update
    if cfg.record_tracking:
        flops += 2 * d * p + 4 * d  # gap to a_bar @ x + b_bar, squared
    flops += d + 2 * d * p + 2 * p  # outer gradient, chain rule, step
    flops += 3 * p  # norm test and running sum
    if cfg.output_mode == "sigma_weighted":
        flops += 2 * p
    return flops


def _optimizer_info(args, kwargs):
    dataset, cfg = args[0], args[1]
    return cfg.steps, cfg.steps * flops_per_step(dataset.d, dataset.p, cfg)


def _bytes_info(args, kwargs):
    return os.path.getsize(args[0])


def sites():
    """``(owner, attribute, span name, info hook)`` for every traced call site."""
    from scolab import cli, core, experiments, oracle, stability

    table = [
        (core.Rng, "split", "core.rng_split", None),
        (core.Rng, "generator", "core.rng_generator", None),
        (oracle, "project_ball", "core.project_ball", None),
        (stability, "_run_with_indices", "optimizer.kernel", _optimizer_info),
        (stability, "check_generalization_inequality", "stability.check_generalization_inequality", None),
        (stability, "estimate_stability", "stability.estimate_stability", None),
        (stability, "coupled_run", "stability.coupled_run", None),
        (cli, "estimate_stability", "stability.estimate_stability", None),
        (cli, "parse_and_dispatch", "cli.parse_and_dispatch", None),
        (cli, "emit_csv", "reporting.emit_csv", _bytes_info),
        (cli, "emit_svg", "reporting.emit_svg", _bytes_info),
    ]
    for module in (cli, experiments, stability):
        table.append((module, "run", "optimizer.run", _optimizer_info))
        table.append((module, "sample_dataset", "problems.sample_dataset", None))
    for module in (experiments, stability):
        table.append((module, "compute_constants", "problems.compute_constants", None))
        table.append((module, "empirical_risk", "problems.empirical_risk", None))
        table.append((module, "population_risk", "problems.population_risk", None))
    for module in (cli, experiments):
        table.append((module, "benchmark_law", "problems.benchmark_law", None))
        table.append((module, "erm_minimizer", "oracle.erm_minimizer", None))
        table.append((module, "population_minimizer", "oracle.population_minimizer", None))
    table.append((experiments, "tracking_bound", "oracle.tracking_bound", None))
    for study in ("tracking_study", "optimization_study", "excess_risk_study"):
        table.append((cli, study, f"experiments.{study}", None))
    return table


LAYERS = ("core", "problems", "optimizer", "oracle", "stability", "experiments", "reporting", "cli")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("optimizer.calls", "count", "lower"),
    ("optimizer.steps", "count", "lower"),
    ("optimizer.busy_s", "s", "lower"),
    ("optimizer.us_per_step", "us", "lower"),
    ("optimizer.computed_mflop_per_s", "MFLOP/s", "higher"),
    ("problems.compute_constants.calls", "count", "lower"),
    ("problems.compute_constants.busy_s", "s", "lower"),
    ("problems.compute_constants.ms_per_call", "ms", "lower"),
    ("problems.sample_dataset.calls", "count", "lower"),
    ("problems.sample_dataset.busy_s", "s", "lower"),
    ("core.rng_splits", "count", "lower"),
    ("core.rng_generators", "count", "lower"),
    ("core.rng_busy_s", "s", "lower"),
    ("stability.coupled_run.calls", "count", "lower"),
    ("stability.concurrency", "ratio", "higher"),
    ("oracle.calls", "count", "lower"),
    ("oracle.busy_s", "s", "lower"),
    ("reporting.busy_s", "s", "lower"),
    ("reporting.bytes_written", "B", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.overlap_s", "s", "lower"),
    ("trace.unaccounted_frac", "ratio", "lower"),
    ("trace.dominant_self_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def rep_metrics(summary: dict, wall: float) -> dict:
    """Per-layer metrics of one traced repetition (``trace.overhead_frac`` excluded)."""
    names, layers = summary["names"], summary["layers"]
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "info": []}

    def name(key):
        return names.get(key, empty)

    opt = [name("optimizer.run"), name("optimizer.kernel")]
    steps = sum(s for entry in opt for s, _ in entry["info"])
    flops = sum(f for entry in opt for _, f in entry["info"])
    opt_busy = layers.get("optimizer", {}).get("busy_s", 0.0)
    opt_self = layers.get("optimizer", {}).get("self_s", 0.0)
    consts = name("problems.compute_constants")
    rng = [name("core.rng_split"), name("core.rng_generator")]
    oracle = [v for k, v in names.items() if k.startswith("oracle.")]
    reporting = [name("reporting.emit_csv"), name("reporting.emit_svg")]
    dominant = max((v["self_s"] for v in names.values()), default=0.0)
    out = {
        "optimizer.calls": sum(e["calls"] for e in opt),
        "optimizer.steps": steps,
        "optimizer.busy_s": opt_busy,
        "optimizer.us_per_step": 1e6 * _ratio(opt_self, steps),
        "optimizer.computed_mflop_per_s": 1e-6 * _ratio(flops, opt_self),
        "problems.compute_constants.calls": consts["calls"],
        "problems.compute_constants.busy_s": consts["busy_s"],
        "problems.compute_constants.ms_per_call": 1e3 * _ratio(consts["busy_s"], consts["calls"]),
        "problems.sample_dataset.calls": name("problems.sample_dataset")["calls"],
        "problems.sample_dataset.busy_s": name("problems.sample_dataset")["busy_s"],
        "core.rng_splits": rng[0]["calls"],
        "core.rng_generators": rng[1]["calls"],
        "core.rng_busy_s": rng[0]["busy_s"] + rng[1]["busy_s"],
        "stability.coupled_run.calls": name("stability.coupled_run")["calls"],
        "stability.concurrency": _ratio(
            name("stability.coupled_run")["busy_s"], name("stability.estimate_stability")["busy_s"]
        ),
        "oracle.calls": sum(e["calls"] for e in oracle),
        "oracle.busy_s": sum(e["busy_s"] for e in oracle),
        "reporting.busy_s": sum(e["busy_s"] for e in reporting),
        "reporting.bytes_written": sum(sum(e["info"]) for e in reporting),
        "trace.wall_s": wall,
        "trace.spans": sum(e["calls"] for e in names.values()),
        "trace.self_sum_s": summary["self_sum_s"],
        "trace.overlap_s": summary["overlap_s"],
        "trace.unaccounted_frac": _ratio(wall - summary["root_s"], wall),
        "trace.dominant_self_frac": _ratio(dominant, summary["self_sum_s"]),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, {}).get("self_s", 0.0)
    return out


def dominant_span(summary: dict) -> str:
    names = summary["names"]
    return max(names, key=lambda k: names[k]["self_s"]) if names else ""


def median_metrics(per_rep: list[dict]) -> dict:
    return {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
