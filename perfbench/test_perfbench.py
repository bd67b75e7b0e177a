"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repository root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from tracer import Span, Tracer, self_times, summarize

run.import_scolab()


def tiny(name):
    cls = workloads.WORKLOADS[name]
    return cls(cls.tiny)


def perturbed(out, factor):
    """Reference built from ``out`` with the last float of the first row scaled."""
    rows = [list(row) for row in out.rows]
    k = max(i for i, v in enumerate(rows[0]) if isinstance(v, float))
    rows[0][k] *= factor
    return {"header": out.header, "rows": rows}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_checks(name, tmp_path):
    workload = tiny(name)
    _, first = run.call_once(workload, 5, tmp_path)
    _, again = run.call_once(workload, 5, tmp_path)
    assert first.blob == again.blob
    assert all(ok for _, ok in workload.predicates(first))
    assert workloads.compare(again, {"header": first.header, "rows": first.rows}) == []
    # ulp-level drift passes, a 1e-6 relative change is caught
    assert workloads.compare(first, perturbed(first, 1.0 + 4e-16)) == []
    assert workloads.compare(first, perturbed(first, 1.0 + 1e-6)) != []
    _, other_seed = run.call_once(workload, 6, tmp_path)
    assert other_seed.blob != first.blob


def test_reference_covers_every_workload_and_seed():
    with open(run.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    assert set(reference) == set(workloads.WORKLOADS)
    for per_seed in reference.values():
        assert set(per_seed) == {str(s) for s in run.REFERENCE_SEEDS}


def test_tracer_restores_every_patched_attribute(tmp_path):
    sites = layers.sites()
    before = [vars(owner)[attr] for owner, attr, _, _ in sites]
    tracer = Tracer(sites)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert any(vars(owner)[attr] is not orig for (owner, attr, _, _), orig in zip(sites, before))
            run.call_once(tiny("stability-sweep"), 1, tmp_path)
            1 / 0
    assert [vars(owner)[attr] for owner, attr, _, _ in sites] == before
    assert all(vars(owner)[attr] is orig for (owner, attr, _, _), orig in zip(sites, before))
    assert tracer.spans


def test_self_time_arithmetic():
    root = Span("cli.root", 0.0, None, 0, 1)
    a = Span("stability.a", 1.0, root, 0, 2)
    b = Span("optimizer.b", 3.0, root, 0, 3)  # overlaps a, on another thread
    leaf = Span("core.leaf", 2.0, a, 0, 2)
    outside = Span("core.outside", 9.5, root, 0, 1)
    for span, end in ((root, 10.0), (a, 4.0), (b, 6.0), (leaf, 3.0), (outside, 10.0)):
        span.end = end
    spans = [root, a, b, leaf, outside]
    own, overlap = self_times(spans)
    assert [own[id(s)] for s in spans] == [4.5, 2.0, 3.0, 1.0, 0.5]
    assert overlap == 1.0
    summary = summarize(spans)
    assert summary["root_s"] == 10.0
    assert summary["self_sum_s"] - summary["overlap_s"] == summary["root_s"]
    assert summary["layers"]["core"] == {"busy_s": 1.5, "self_s": 1.5}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_tiny_run_counts_and_accounts(name, tmp_path):
    workload = tiny(name)
    _, plain = run.call_once(workload, 2, tmp_path)
    tracer = Tracer(layers.sites())
    wall, traced = run.call_once(workload, 2, tmp_path, tracer)
    assert traced.blob == plain.blob
    summary = summarize(tracer.spans)
    metrics = layers.rep_metrics(summary, wall)
    assert metrics["optimizer.steps"] == workload.steps()
    assert set(metrics) | {"trace.overhead_frac"} == {key for key, _, _ in layers.PER_LAYER}
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert layer_self == pytest.approx(summary["self_sum_s"], rel=1e-9)
    assert summary["self_sum_s"] - summary["overlap_s"] == pytest.approx(summary["root_s"], rel=1e-9)
    assert 0.0 <= metrics["trace.unaccounted_frac"] < 0.05


def test_benchmark_json_matches_the_runner():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "steps_per_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "excess-risk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
