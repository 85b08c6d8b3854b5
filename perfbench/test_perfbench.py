"""Tests of the benchmark itself: its definition file, the traced run at
tiny sizes, and its refusal to run (or to trace) what is not there."""

from __future__ import annotations

import gc
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run as bench_run
from perfbench import tracer as tracing
from perfbench.workloads import END_TO_END, SWEEP_WARM_PASSES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: tiny versions of the workloads: a one-day 16-machine fleet and a
#: few-hundred-cell sweep
TINY = {
    "fleet-churn": {"params": {"duration_s": 86_400.0, "initial_jobs": 24,
                               "arrival_mean_s": 1800.0}},
    "sweep-cache": {"grid_cells": 320},
}


def traced_rep(workload: str, tmp_path: Path, n: int) -> dict:
    args = {"workload": workload, "seed": 3, "cell": 0, "trace": True,
            "scratch": str(tmp_path / f"{workload}-{n}"),
            "overrides": TINY[workload]}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.rep", json.dumps(args)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed"] = elapsed
    return result


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_reports_every_layer_and_reconciles(workload, tmp_path):
    first, second = (traced_rep(workload, tmp_path, n) for n in (1, 2))
    assert first["failures"] == [] and second["failures"] == []
    assert first["digest"] == second["digest"]

    values = [tracing.layer_metrics(r["trace"]) for r in (first, second)]
    names = [name for name, _unit in tracing.layer_metric_names()]
    assert all(sorted(v) == sorted(names) for v in values)

    # counts are deterministic and repeat exactly
    counts = [name for name, unit in tracing.layer_metric_names()
              if unit in ("count", "ratio") and name != "trace.overhead_frac"]
    for name in counts:
        assert values[0][name] == values[1][name], name

    for result, value in zip((first, second), values):
        raw = result["trace"]
        self_times = [value[f"{span}_s"] for span in tracing.SPAN_NAMES]
        assert min(self_times) >= 0.0
        assert value["trace.unattributed_s"] >= 0.0
        # self times plus the unattributed rest are the traced wall time
        total = sum(self_times) + value["trace.unattributed_s"]
        assert total == pytest.approx(raw["wall_s"], rel=1e-9, abs=1e-9)
        assert raw["wall_s"] < result["elapsed"]
        assert 0.0 < value["trace.overhead_frac"] < 1.0

    # the layers each workload exists to load are loaded
    v = values[0]
    if workload == "fleet-churn":
        for name in ("training.job.steps", "cluster.scheduler.dispatch_calls",
                     "controller.stack.lifecycle_calls", "sim.engine.events",
                     "monitor.collectors.polls", "cluster.faults.injections",
                     "controller.controller.signals"):
            assert v[name] > 0, name
        assert v["experiments.cache.writes"] == 1
    else:
        n = TINY[workload]["grid_cells"]
        passes = 1 + SWEEP_WARM_PASSES
        assert v["experiments.sweep.cells"] == n * passes
        assert v["experiments.cache.writes"] == n
        assert v["experiments.cache.hit_ratio"] == (passes - 1) / passes
        assert v["experiments.executor.batches"] == n
        assert v["training.job.steps"] == 0


def test_table_is_sorted_by_self_time(capsys):
    raw = tracing.merge_raw([])
    raw["spans"]["sim.engine.self"] = [1, 2.0]
    raw["spans"]["training.job.step"] = [10, 3.0]
    raw["wall_s"] = raw["attributed_s"] = 5.0
    bench_run.print_table(raw)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[0] == "training.job.step"
    assert lines[2].split()[0] == "sim.engine.self"


def test_every_boundary_resolves_and_uninstalls():
    import repro.sim.engine as engine

    original = engine.Simulator.run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert engine.Simulator.run is not original
    finally:
        tracer.uninstall()
    assert engine.Simulator.run is original


def test_missing_boundary_fails_loudly_and_wraps_nothing():
    import repro.sim.engine as engine

    original = engine.Simulator.run
    renamed = tracing.BOUNDARIES + (tracing.Boundary(
        "repro.training.job", "TrainingJob._complete_step_renamed",
        "training.job.step"),)
    with pytest.raises(tracing.TraceError, match="_complete_step_renamed"):
        tracing.Tracer().install(renamed)
    assert engine.Simulator.run is original


def test_untraced_override_fails_loudly():
    from repro.cluster.placement import PackPolicy

    class FasterPack(PackPolicy):
        def select(self, cluster, candidates, count):
            return list(candidates)[:count]

    try:
        with pytest.raises(tracing.TraceError, match="FasterPack.select"):
            tracing.Tracer().install()
    finally:
        del FasterPack
        gc.collect()


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert sorted(entry) == ["name", "why"]
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.layer_metric_names()
    assert all(m["better"] in ("lower", "higher") for m in spec["per_layer"])
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = spec["end_to_end"] + spec["per_layer"]
    for m in metrics + spec["workloads"]:
        assert name_re.match(m["name"]), m["name"]
    for m in metrics:
        assert unit_re.match(m["unit"]), m["unit"]
    assert len({m["name"] for m in metrics}) == len(metrics)


def test_run_without_program_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-churn",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
