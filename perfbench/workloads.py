"""The benchmark's four workloads and their output checks.

Each workload is a scaled-down copy of one acceptance criterion, driven
only through scolab's public entry points: ``scolab.cli.parse_and_dispatch``
for the three CLI studies and ``scolab.stability.check_generalization_inequality``
for the study that has no CLI command.  Entry points are looked up on
their modules at call time, so a tracer that patches them sees the call.

A workload turns ``(sizes, seed, outdir)`` into a zero-argument call,
which the runner times, and turns the call's result into an
:class:`Output`: the exact bytes that repeats must reproduce, plus the
parsed rows that are compared against recorded references.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Relative and absolute tolerance of the reference comparison.  A kernel
# rewrite may move results by a few ulps per step (ROADMAP allows it):
# regrouping the step as (eta * outer_g) @ a_j moved every output by at
# most 9e-14 relative.  A real change of the algorithm is caught: beta
# off by 1e-6 relative moved outputs by about 1e-6 on every workload.
REL_TOL = 1e-8
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Output:
    blob: bytes
    header: list
    rows: list


def parse_csv(text: str) -> tuple[list, list]:
    """Header and rows of a scolab CSV, cells coerced to int, float, str or None."""

    def cell(value: str):
        if value == "":
            return None
        for kind in (int, float):
            try:
                return kind(value)
            except ValueError:
                pass
        return value

    lines = [line for line in text.split("\n") if line]
    return lines[0].split(","), [[cell(v) for v in line.split(",")] for line in lines[1:]]


def _finite_nonneg(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value >= 0


class Workload:
    name = ""
    full: dict = {}
    tiny: dict = {}

    def __init__(self, sizes: dict | None = None):
        self.sizes = dict(self.full if sizes is None else sizes)

    def steps(self) -> int:
        """Optimizer steps one call performs, counted from the config."""
        raise NotImplementedError

    def prepare(self, seed: int, outdir: Path):
        """Everything outside the timed region; returns the timed call."""
        raise NotImplementedError

    def collect(self, result, outdir: Path) -> Output:
        raise NotImplementedError

    def predicates(self, out: Output) -> list[tuple[str, bool]]:
        raise NotImplementedError


class CliWorkload(Workload):
    svg = False

    def argv(self, seed: int, csv: Path) -> list[str]:
        raise NotImplementedError

    def prepare(self, seed, outdir):
        from scolab import cli

        outdir.mkdir(parents=True, exist_ok=True)
        argv = self.argv(seed, outdir / f"{self.name}.csv")
        return lambda: cli.parse_and_dispatch(argv)

    def collect(self, result, outdir):
        if result != 0:
            raise RuntimeError(f"scolab {self.name} exited with code {result}")
        csv = (outdir / f"{self.name}.csv").read_bytes()
        blob = csv
        if self.svg:
            blob += (outdir / f"{self.name}.svg").read_bytes()
        header, rows = parse_csv(csv.decode("utf-8"))
        return Output(blob=blob, header=header, rows=rows)


class StabilitySweep(CliWorkload):
    """Criteria 6/7 shape: long coupled SCGD runs at --threads 2, so the
    kernel and thread pool dominate and no constants or oracles run."""

    name = "stability-sweep"
    full = {"n": "25,50,100", "m": "50", "T": 2048, "replicates": 2, "threads": 2}
    tiny = {"n": "5,10", "m": "5", "T": 64, "replicates": 2, "threads": 2}

    def steps(self):
        s = self.sizes
        cells = len(s["n"].split(",")) * len(s["m"].split(","))
        return cells * s["replicates"] * 2 * 2 * s["T"]

    def argv(self, seed, csv):
        s = self.sizes
        return [
            "stability", "--n", s["n"], "--m", s["m"], "--T", str(s["T"]),
            "--eta", "1e-3", "--beta", "0.1", "--threads", str(s["threads"]),
            "--replicates", str(s["replicates"]), "--seed", str(seed), "--out", str(csv),
        ]

    def predicates(self, out):
        cols = [out.header.index(c) for c in ("eps_nu_hat", "eps_nu_se", "eps_omega_hat", "eps_omega_se")]
        return [
            (f"row {k}: finite non-negative eps and se", all(_finite_nonneg(row[c]) for c in cols))
            for k, row in enumerate(out.rows)
        ]


class ExcessRisk(CliWorkload):
    """Criterion 8 shape: many 33-167 step sigma-weighted SCSC runs, each
    on a fresh dataset, so per-run set-up (sampling, RNG, index draw)
    weighs against the kernel."""

    name = "excess-risk"
    full = {"sizes": "20,40,80", "replicates": 120}
    tiny = {"sizes": "4,8", "replicates": 2}

    def horizons(self) -> list[int]:
        # Published strongly convex SCSC preset: T = ceil(n ** (7/6)).
        return [max(1, math.ceil(int(n) ** (7.0 / 6.0) - 1e-9)) for n in self.sizes["sizes"].split(",")]

    def steps(self):
        return self.sizes["replicates"] * sum(self.horizons())

    def argv(self, seed, csv):
        s = self.sizes
        return [
            "excess-risk", "--benchmark", "strongly_convex", "--convexity", "strongly_convex",
            "--variant", "scsc", "--sizes", s["sizes"], "--replicates", str(s["replicates"]),
            "--seed", str(seed), "--out", str(csv),
        ]

    def predicates(self, out):
        t_col = out.header.index("T")
        mean_col = out.header.index("excess_mean")
        data = out.rows[:-1]
        checks = [("T column matches the preset", [r[t_col] for r in data] == self.horizons())]
        checks += [
            (f"row {k}: finite non-negative excess", _finite_nonneg(r[mean_col]))
            for k, r in enumerate(data)
        ]
        return checks


class TrackingCurve(CliWorkload):
    """Criterion 4 shape: SCSC recording path over shared data; only
    workload that runs tracking_bound and emit_svg, and where
    peak_rss_mb would expose (R, T) arrays."""

    name = "tracking-curve"
    full = {"T": 5000, "replicates": 10, "log_points": 60}
    tiny = {"T": 64, "replicates": 2, "log_points": 10}
    svg = True

    def steps(self):
        return self.sizes["replicates"] * self.sizes["T"]

    def argv(self, seed, csv):
        s = self.sizes
        return [
            "tracking", "--variant", "scsc", "--T", str(s["T"]), "--log-points", str(s["log_points"]),
            "--svg", "--replicates", str(s["replicates"]), "--seed", str(seed), "--out", str(csv),
        ]

    def predicates(self, out):
        err, se, bound = (out.header.index(c) for c in ("mean_sq_error", "se", "bound"))
        return [
            (f"row {k}: finite non-negative gap, se and bound",
             all(_finite_nonneg(r[c]) for c in (err, se, bound)))
            for k, r in enumerate(out.rows)
        ]


class Generalization(Workload):
    """Criterion 9 shape: compute_constants(grid=128) per replicate is
    about 3/4 of the time, so it is the mechanism workload for exact
    constants; no CLI, threads=1."""

    name = "generalization"
    full = {"n": 40, "m": 40, "T": 512, "replicates": 4}
    tiny = {"n": 8, "m": 8, "T": 32, "replicates": 2}

    def steps(self):
        # replicates gap runs, plus two coupled runs per side in estimate_stability
        return self.sizes["replicates"] * self.sizes["T"] * (1 + 2 * 2)

    def prepare(self, seed, outdir):
        from scolab import stability
        from scolab.core import Rng
        from scolab.optimizer import OptimizerConfig, Variant
        from scolab.problems import benchmark_law

        s = self.sizes
        law = benchmark_law("convex")
        cfg = OptimizerConfig(variant=Variant.SCGD, steps=s["T"], eta=1e-3, beta=0.1)
        rng = Rng(seed).split("c9")
        return lambda: stability.check_generalization_inequality(
            law, s["n"], s["m"], cfg, s["replicates"], rng, threads=1
        )

    def collect(self, result, outdir):
        fields = [f.name for f in dataclasses.fields(result)]
        values = [getattr(result, f) for f in fields]
        values = [v if isinstance(v, bool) else float(v) for v in values]
        blob = json.dumps([v if isinstance(v, bool) else v.hex() for v in values]).encode()
        return Output(blob=blob, header=fields, rows=[values])

    def predicates(self, out):
        row = dict(zip(out.header, out.rows[0]))
        finite = all(math.isfinite(v) for k, v in row.items() if k != "holds")
        return [("all report fields finite", finite), ("generalization inequality holds", row["holds"] is True)]


WORKLOADS = {w.name: w for w in (StabilitySweep, Generalization, ExcessRisk, TrackingCurve)}


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
            return False
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL
    return a == b


def compare(out: Output, ref: dict) -> list[str]:
    """Mismatches between an output and a recorded reference (empty when equal)."""
    if out.header != ref["header"]:
        return [f"header {out.header} != {ref['header']}"]
    if len(out.rows) != len(ref["rows"]):
        return [f"{len(out.rows)} rows != {len(ref['rows'])}"]
    return [
        f"row {k} {col}: {a!r} != {b!r}"
        for k, (row, ref_row) in enumerate(zip(out.rows, ref["rows"]))
        for col, a, b in zip(out.header, row, ref_row)
        if not _close(a, b)
    ]
