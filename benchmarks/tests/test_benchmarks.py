"""Smoke tests of the benchmark itself, on small inputs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks import checks, harness, run, workloads
from eulerext import extension, graph, models

ROOT = Path(__file__).resolve().parents[2]


def small_workloads(seed, out_dir):
    return {
        "mc_family300": workloads.MonteCarlo(
            "mc_family300", seed, out_dir,
            [lambda: models.ExampleFamilyModel(40, 0.4, 0.2)], per_pass=4, passes=2, tail_pct=95.0,
        ),
        "extend_dense": workloads.ExtendDense(
            seed, out_dir, configs=((30, 0.9),), samples=2, complete=(12,)
        ),
        "bounds_sweep": workloads.BoundsSweep(
            seed, out_dir, grid=(100, 200), explicit_n=60, jitter=20
        ),
        "mc_tiny": workloads.MonteCarlo(
            "mc_tiny", seed, out_dir,
            [lambda: models.HomogeneousModel(8, 0.5)], per_pass=10, passes=2, tail_pct=99.0,
        ),
    }


def measured(name, seed, out_dir, trace=False):
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = small_workloads(seed, out_dir)[name]
    workload.setup()
    return harness.measure(workload, 0.01, trace)


def namespace_snapshot():
    """Every attribute of every eulerext module, plus the Graph class dict."""
    snap = {
        (key, attr): value
        for key, module in sys.modules.items()
        if key == "eulerext" or key.startswith("eulerext.")
        for attr, value in vars(module).items()
    }
    snap.update((("Graph", attr), value) for attr, value in vars(graph.Graph).items())
    return snap


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == harness.per_layer_units()
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_prints_every_metric_with_its_unit(name, tmp_path):
    args = run.parse_args(["--workload", name, "--seed", "3", "--seconds", "0.01"])
    result = measured(name, 3, tmp_path)
    result["metrics"].update(setup_s=0.1, peak_rss_mb=50.0)
    assert result["failed"] == 0, result["errors"]
    lines = run.report_lines(args, result, {})
    for metric, (unit, _) in harness.END_TO_END.items():
        assert any(line.startswith(f"{metric} ") and f" {unit}" in line for line in lines), metric
    for metric in [*harness.QUALITY, "failed_fraction"]:
        assert any(line.startswith(f"{metric} ") for line in lines), metric
    last = json.loads(run.result_json(result, 0))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        k: unit for k, (unit, _) in harness.END_TO_END.items()
    }


def test_timings_are_scaled_to_the_reference_speed(tmp_path):
    result = measured("mc_tiny", 2, tmp_path)
    notes = result["notes"]
    factor = harness.REFERENCE_SECONDS / notes["reference_s"]
    assert notes["scale"] == pytest.approx(factor)
    raw, metrics = notes["unscaled"], result["metrics"]
    assert metrics["ops_per_s"] == pytest.approx(raw["ops_per_s"] / factor)
    assert metrics["op_ms_p50"] == pytest.approx(raw["op_ms_p50"] * factor)
    assert metrics["op_ms_tail"] == pytest.approx(raw["op_ms_tail"] * factor)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_reports_layers_and_restores_the_library(name, tmp_path):
    before = namespace_snapshot()
    result = measured(name, 5, tmp_path, trace=True)
    assert namespace_snapshot() == before
    assert result["failed"] == 0, result["errors"]
    last = json.loads(run.result_json(result, 1))
    assert set(last["metrics"]) == set(harness.per_layer_units())
    values = result["metrics"]
    if name.startswith("mc_"):
        assert values["experiment.run_single_trial.calls"] > 0
        assert values["experiment.write_records.bytes"] > 0
        # self time excludes the layers called inside the trial
        assert values["experiment.run_single_trial.self_s"] < values["experiment.run_single_trial.busy_s"]
    if name == "mc_tiny":
        assert values["oracle.min_extension_exact.calls"] == values["experiment.run_single_trial.calls"]
    if name == "extend_dense":
        assert values["extension.phase3.pairs"] > 0
        assert values["extension.failures.no_three_path"] > 0
    if name == "bounds_sweep":
        assert values["models.alpha_stats.calls"] == values["bounds.step_success_bound.calls"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_same_digest_and_quality(name, tmp_path):
    first = measured(name, 11, tmp_path / "a")
    second = measured(name, 11, tmp_path / "b")
    assert first["digest"] == second["digest"]
    assert first["quality"] == second["quality"]


def test_check_flags_an_added_edge_already_in_the_input():
    g = graph.Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    adj = np.zeros((4, 4), dtype=bool)
    for u, v in g.edges():
        adj[u, v] = adj[v, u] = True
    good = extension.extend(g)
    assert good.success and checks.check_extension(adj, good) == []
    bad = extension.ExtensionResult(True, 1, (extension.AddedEdge(0, 1, extension.PHASE_PAIRING),))
    problems = checks.check_extension(adj, bad)
    assert any("already in the input" in p for p in problems)


def test_failed_fraction_counts_a_corrupted_result(tmp_path, monkeypatch):
    real = extension.extend

    def corrupt(g, rng=None, max_random_attempts=None):
        result = real(g, rng=rng, max_random_attempts=max_random_attempts)
        u, v = next(g.edges())
        return extension.ExtensionResult(
            True, result.t_input, (extension.AddedEdge(u, v, extension.PHASE_PAIRING),)
        )

    workload = small_workloads(0, tmp_path)["extend_dense"]
    workload.setup()
    monkeypatch.setattr(extension, "extend", corrupt)
    result = harness.measure(workload, 0.01, False)
    assert result["failed"] == result["attempted"] > 0
    assert json.loads(run.result_json({**result, "metrics": {**result["metrics"], "setup_s": 1.0,
                                                             "peak_rss_mb": 1.0}}, 0))["correct"] is False
    assert any("already in the input" in e for e in result["errors"])


def test_a_rerun_with_other_output_fails(tmp_path, monkeypatch):
    real = extension.extend
    calls = []

    def drifting(g, rng=None, max_random_attempts=None):
        # the first run of every call is honest; later runs drop the edges
        calls.append(g)
        result = real(g, rng=rng, max_random_attempts=max_random_attempts)
        if len(calls) <= len(ops_per_pass):
            return result
        return extension.ExtensionResult(False, result.t_input, (), "no_three_path")

    workload = small_workloads(0, tmp_path)["extend_dense"]
    workload.setup()
    ops_per_pass = workload.make_pass(0).ops
    monkeypatch.setattr(extension, "extend", drifting)
    result = harness.measure(workload, 0.01, False)
    reruns = result["attempted"] - len(ops_per_pass)
    assert result["attempted"] >= harness.MIN_ROUNDS * len(ops_per_pass)
    # every rerun of a call that succeeded differs from its first run
    assert 0 < result["failed"] <= reruns
    assert any("differs from the first run" in e for e in result["errors"])


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "mc_tiny", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
