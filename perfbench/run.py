"""scolab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --record-reference

Run from the repository root; scolab is imported from ``src/`` beside
this directory and nowhere else.  One run sets up (median of several
fresh processes), warms up in-process, then calls the workload in a
closed loop for ``--seconds`` seconds: one call at a time, the next
starting when the previous returns, with a calibration unit between
calls (see ``Normalizer``).  Every call's output must be
byte-identical to the first one's, pass the workload's predicates, and
match the recorded reference (checked on a reference seed when the run's
own seed has none).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` alternates untraced and
traced calls and reports the per-layer metrics of ``layers.PER_LAYER``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# Seeds with recorded reference outputs: the CLI default and a held-out one.
REFERENCE_SEEDS = (0, 9001)
SETUP_REPEATS = 5
MIN_CALLS = 3
# Host-speed normalization.  On the shared 2-core host this benchmark was
# built on (Intel Xeon, Python 3.11, numpy 2.4), identical work runs 1x to
# 1.9x slower from one second to the next, CPU time tracking wall time and
# steal time near zero, and whole 20-second stretches can run slow.  The
# fastest or median raw call of a run then moved by 15-25% between runs.
# So every timed interval (each call, each set-up probe) is bracketed by a
# fixed calibration unit of kernel-like work and reported in seconds at
# reference speed:
#     wall * CAL_REF_S / mean(calibration before, calibration after),
# CAL_REF_S being the unit's undisturbed time on that host.  wall_s is the
# median of these over a run's calls; runs then agreed within about 10%.
CAL_ITERS = 10_000
CAL_REF_S = 0.040


class BenchError(Exception):
    pass


def import_scolab():
    """Import scolab from this checkout's ``src/``; fail when it is absent."""
    if not (SRC / "scolab" / "__init__.py").is_file():
        raise BenchError(f"no scolab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import scolab

    if Path(scolab.__file__).resolve().parent != (SRC / "scolab").resolve():
        raise BenchError(f"imported scolab from {scolab.__file__}, not from {SRC}")
    return scolab


def environment() -> dict:
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            env["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["thread_env"] = {
        key: os.environ[key]
        for key in sorted(os.environ)
        if key.endswith("_NUM_THREADS") or key.startswith(("OPENBLAS", "OMP_", "MKL_", "BLIS"))
    }
    return env


def calibration_unit() -> float:
    """Wall time of a fixed piece of work shaped like the step kernel:
    Python-dispatched 4x5 matrix-vector products."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 20).reshape(4, 5)
    b = np.linspace(0.0, 1.0, 4)
    x = np.ones(5)
    start = perf_counter()
    for _ in range(CAL_ITERS):
        y = a @ x + b
        x = x - 1e-3 * (y @ a)
    return perf_counter() - start


class Normalizer:
    """Scales wall times to reference speed using calibration units run
    immediately before and after each timed interval."""

    def __init__(self):
        self.last = calibration_unit()

    def scale(self, wall: float) -> float:
        after = calibration_unit()
        speed = CAL_REF_S / (0.5 * (self.last + after))
        self.last = after
        return wall * speed


def call_once(workload, seed: int, outdir: Path, tracer=None):
    """One timed call of the workload's entry point; returns (wall seconds, Output)."""
    call = workload.prepare(seed, outdir)
    with redirect_stderr(io.StringIO()), tracer or nullcontext():
        start = perf_counter()
        result = call()
        wall = perf_counter() - start
    return wall, workload.collect(result, outdir)


def warm_up(name: str, seed: int) -> None:
    """The set-up a fresh process needs: build both benchmark laws, make one tiny call."""
    import workloads
    from scolab.problems import benchmark_law

    benchmark_law("convex")
    benchmark_law("strongly_convex")
    cls = workloads.WORKLOADS[name]
    call_once(cls(cls.tiny), seed, OUT / name / "warm")


def setup_probe(name: str) -> int:
    """Child-process body whose lifetime is one ``setup_s`` sample."""
    import_scolab()
    warm_up(name, 0)
    return 0


def measure_setup(name: str) -> float:
    """Median normalized wall time of fresh processes that import, build the laws and warm up."""
    samples = []
    norm = Normalizer()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        samples.append(norm.scale(perf_counter() - start))
        if proc.returncode != 0:
            raise BenchError("setup probe failed: " + proc.stderr.decode(errors="replace")[-2000:])
    return statistics.median(samples)


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def load_reference(name: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)[name]


def check_output(checks: Checks, workload, out, seed: int, reference: dict) -> None:
    import workloads

    for label, ok in workload.predicates(out):
        checks.check(f"seed {seed}: {label}", ok)
    if str(seed) in reference:
        mismatches = workloads.compare(out, reference[str(seed)])
        checks.check(f"seed {seed}: matches reference ({'; '.join(mismatches[:3])})", not mismatches)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_scolab()
    import layers
    import workloads
    from tracer import Tracer, summarize

    print(json.dumps({"environment": environment()}))
    workload = workloads.WORKLOADS[name]()
    reference = load_reference(name)
    outdir = OUT / name
    setup_s = measure_setup(name)
    warm_up(name, seed)

    checks = Checks()
    raw = {False: [], True: []}
    scaled = {False: [], True: []}
    first = None
    per_rep, spans = [], []
    norm = Normalizer()
    start = perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        tracer = Tracer(layers.sites(), rep=k) if traced else None
        wall, out = call_once(workload, seed, outdir, tracer)
        raw[traced].append(wall)
        scaled[traced].append(norm.scale(wall))
        if first is None:
            first = out
            check_output(checks, workload, out, seed, reference)
        checks.check(f"call {k}: output bytes identical to call 0", out.blob == first.blob)
        if tracer is not None:
            summary = summarize(tracer.spans)
            per_rep.append(layers.rep_metrics(summary, wall))
            checks.check(
                f"call {k}: traced optimizer steps equal the configured {workload.steps()}",
                per_rep[-1]["optimizer.steps"] == workload.steps(),
            )
            spans.append((summary, tracer.spans))
        k += 1
        enough = min(len(raw[False]), len(raw[True]) if trace else MIN_CALLS) >= MIN_CALLS
        if enough and perf_counter() - start >= seconds:
            break

    if str(seed) not in reference:
        ref_seed = REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]
        _, ref_out = call_once(workload, ref_seed, outdir / "reference")
        check_output(checks, workload, ref_out, ref_seed, reference)

    wall_s = statistics.median(scaled[False])
    print(
        f"workload={name} seed={seed} calls={len(raw[False])} untraced"
        + (f" + {len(raw[True])} traced" if trace else "")
        + f", steps/call={workload.steps()}; raw wall min/median/max = "
        + "/".join(f"{f(raw[False]):.4f}" for f in (min, statistics.median, max))
        + " s; normalized wall min/median/max = "
        + "/".join(f"{f(scaled[False]):.4f}" for f in (min, statistics.median, max))
        + " s"
    )
    print(
        f"checks: {checks.attempted} attempted, {len(checks.failures)} failed, "
        f"error_rate={len(checks.failures) / checks.attempted:.4g}"
    )
    for failure in checks.failures:
        print(f"  FAILED {failure}")

    if trace:
        metrics = layers.median_metrics(per_rep)
        metrics["trace.overhead_frac"] = statistics.median(scaled[True]) / wall_s - 1.0
        units = {key: unit for key, unit, _ in layers.PER_LAYER}
        dominant = statistics.mode(layers.dominant_span(s) for s, _ in spans)
        print(f"dominant span by self time: {dominant}")
        write_trace(name, seed, spans)
    else:
        metrics = {
            "wall_s": wall_s,
            "steps_per_s": workload.steps() / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def write_trace(name: str, seed: int, reps) -> None:
    """Write every span of the traced calls as JSON lines, after measuring."""
    from tracer import self_times

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for _, spans in reps:
            own, _ = self_times(spans)
            ids = {id(span): k for k, span in enumerate(spans)}
            for span in spans:
                record = {
                    "id": ids[id(span)],
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)),
                    "rep": span.rep,
                    "thread": span.thread,
                    "self_s": own[id(span)],
                }
                handle.write(json.dumps(record) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print one table of metrics."""
    import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        rate = result["failed"] / result["attempted"]
        print(f"{name:16s} error_rate {rate:.4g} ({result['failed']}/{result['attempted']} checks)")
        for key, metric in result["metrics"].items():
            print(f"{name:16s} {key:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(results))
    return status


def record_reference() -> int:
    """Record the reference outputs of every workload at every reference seed."""
    import_scolab()
    import workloads

    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        reference[name] = {}
        for seed in REFERENCE_SEEDS:
            _, out = call_once(cls(), seed, OUT / name / "reference")
            reference[name][str(seed)] = {"header": out.header, "rows": out.rows}
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            return record_reference()
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of: all, {', '.join(workloads.WORKLOADS)}")
        if args.setup_probe:
            return setup_probe(args.workload)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
