"""Smoke tests of the benchmark's workloads, tracer and command.

Every workload runs at its tiny size: the same seed must reproduce every
simulated metric exactly, another seed must change the inputs, and a
traced run must partition its wall into layer buckets without changing
what the simulation computes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.sim.flows
import repro.sim.solver
from perfbench import bench, tracer
from perfbench.workloads import WORKLOADS, sim_metrics

ROOT = Path(__file__).resolve().parents[2]
NAMES = sorted(WORKLOADS)


def _outcome(workload, seed):
    state = workload.setup(seed)
    return workload.inputs(state), workload.check(state, workload.run(state))


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_reproduces_simulated_metrics(name):
    workload = WORKLOADS[name](tiny=True)
    inputs_a, first = _outcome(workload, 3)
    inputs_b, again = _outcome(workload, 3)
    assert first.correct and first.failed == 0, first.problems
    assert inputs_a == inputs_b
    for field in ("latencies", "span_s", "gb", "model", "counters",
                  "digest"):
        assert getattr(first, field) == getattr(again, field), field
    sim, _ = sim_metrics([first])
    assert all(value > 0 and math.isfinite(value)
               for value in sim.values()), sim
    other_inputs, _ = _outcome(workload, 4)
    assert other_inputs != inputs_a


def test_node_down_workload_takes_the_elastic_path():
    _, outcome = _outcome(WORKLOADS["hier-nodedown-16"](tiny=True), 3)
    assert outcome.counters["recovery.replans"] >= 1
    assert outcome.counters["recovery.waves_replayed"] >= 1


def test_service_workload_sheds_load():
    _, outcome = _outcome(WORKLOADS["service-dgx-2x"](tiny=True), 3)
    assert outcome.counters["serve.rejected"] > 0
    assert outcome.counters["serve.completed"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_partitions_wall_and_matches_untraced(name):
    original = repro.sim.solver.water_fill_arrays
    report = bench.traced(WORKLOADS[name](tiny=True), 5, import_s=0.1)
    assert report.correct, report.problems
    values = report.values
    buckets = sum(values[f"{layer.name}.self_s"] for layer in tracer.LAYERS)
    buckets += values["other.self_s"]
    assert buckets == pytest.approx(values["trace.wall_s"], rel=0.05)
    assert values["sim.engine.events_dispatched"] > 0
    # Uninstalling restores every binding, including copied imports.
    assert repro.sim.solver.water_fill_arrays is original
    assert repro.sim.flows.water_fill_arrays is original


@pytest.mark.parametrize("name", ["p2p-dgx-2b", "hier-fattree-16"])
def test_tracer_counts_every_fill_the_model_counts(name):
    report = bench.traced(WORKLOADS[name](tiny=True), 5, import_s=0.1)
    assert report.values["sim.solver.fills"] == report.values["model.fills"]
    assert report.values["gpuprims.keys"] > 0


def test_traced_run_fails_when_the_simulation_is_perturbed(monkeypatch):
    workload = WORKLOADS["hier-fattree-16"](tiny=True)
    real_setup = workload.setup
    calls = []

    def setup(seed, profile=False):
        calls.append(seed)
        # The third setup is the traced one: give it other inputs.
        return real_setup(seed + (len(calls) == 3), profile)

    monkeypatch.setattr(workload, "setup", setup)
    report = bench.traced(workload, 5, import_s=0.1)
    assert not report.correct
    assert any("traced run" in problem for problem in report.problems)


def test_measure_reports_every_end_to_end_metric():
    report = bench.measure(WORKLOADS["hier-fattree-16"](tiny=True), 2, 0.5)
    assert report.correct, report.problems
    assert report.failed == 0 and report.attempted >= 1
    metrics = report.metrics(bench.END_TO_END)
    assert all(metric["value"] > 0 for metric in metrics.values()), metrics
    assert len(report.samples["setup_s"]) > bench.SETUP_REPEATS


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_prediction_names_a_metric_and_a_workload():
    for layer in tracer.LAYERS:
        for metric, workload in layer.moves:
            assert metric in bench.END_TO_END, layer.name
            assert workload in WORKLOADS or workload == "*", layer.name


def test_layer_of_uses_the_longest_prefix():
    assert tracer.layer_of("repro.hw.topology") == "hw.topology"
    assert tracer.layer_of("repro.hw.cluster") == "hw"
    assert tracer.layer_of("repro.sim.trace") == "obs"
    assert tracer.layer_of("repro.errors") == tracer.OTHER


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "p2p-dgx-2b",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
