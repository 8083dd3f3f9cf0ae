"""Tests of the functional-kernel throughput benchmark (``kernels``).

The plain tests validate registration and the quick suite's table/JSON
shape; the ``perf``-marked test asserts the headline optimization — the
vectorized scatter beating the per-bucket reference by >=5x on one
million keys — and only fails on a gross regression of the kernel
layer.  Deselect with ``-m 'not perf'``.
"""

import json

import pytest

from repro.bench.experiments import kernels
from repro.bench.harness import experiment_by_id
from repro.errors import ReproError


def test_registered_in_harness():
    experiment = experiment_by_id("kernels")
    assert experiment.runner is kernels.run_kernels_entry


def test_quick_suite_metrics_and_json(tmp_path):
    json_path = tmp_path / "kernels.json"
    table = kernels.run_kernels(quick=True, repeats=1,
                                json_path=str(json_path))
    assert len(table.rows) == 6
    assert all(row[-1] == "pass" for row in table.rows)
    record = json.loads(json_path.read_text())
    assert record["benchmark"] == "kernels"
    scenarios = record["scenarios"]
    assert all(scenario["check"] for scenario in scenarios.values())
    for name in ("scatter-100k", "paradis-50k", "lsb-200k", "merge-8x4k"):
        scenario = scenarios[name]
        assert scenario["keys"] > 0
        assert scenario["wall_s"] > 0
        assert scenario["keys_per_sec"] > 0
        # Live reference baselines accompany every kernel scenario.
        assert scenario["ref_wall_s"] > 0
        assert scenario["speedup"] > 0
        assert scenario["ref_source"] == "reference-impl"
    # The quick mergepath and e2e sizes have no recorded seed baseline.
    for name in ("mergepath-200k", "p2p-8gpu-200k-int32"):
        assert scenarios[name]["wall_s"] > 0
        assert "ref_wall_s" not in scenarios[name]


def test_quick_default_json_path_is_protected(tmp_path, monkeypatch):
    # A quick run pointed at the committed record must not clobber it.
    monkeypatch.chdir(tmp_path)
    kernels.run_kernels(quick=True, repeats=1,
                        json_path="BENCH_kernels.json")
    assert not (tmp_path / "BENCH_kernels.json").exists()


def test_committed_bench_record_meets_targets():
    # The committed record must witness the optimization: >=10x on the
    # scatter and >=5x on PARADIS at one million keys, a faster Merge
    # Path merge and an end-to-end improvement over the seed tree.
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "BENCH_kernels.json"
    record = json.loads(path.read_text())
    scenarios = record["scenarios"]
    assert scenarios["scatter-1m"]["speedup"] >= 10.0
    assert scenarios["paradis-1m"]["speedup"] >= 5.0
    assert scenarios["p2p-8gpu-2m-int32"]["speedup"] > 1.0
    assert scenarios["mergepath-1m"]["speedup"] > 1.0
    assert scenarios["mergepath-1m"]["ref_source"] == "seed-tree"
    assert all(scenario["check"] for scenario in scenarios.values())


@pytest.mark.perf
def test_scatter_beats_reference_by_5x_on_1m_keys():
    result = kernels.run_scatter(1_000_000, repeats=3)
    assert result.speedup is not None
    assert result.speedup >= 5.0, (
        f"vectorized scatter only {result.speedup:.1f}x over the "
        "per-bucket reference on 1M keys: gross kernel regression")


def test_failed_output_check_aborts_suite(monkeypatch):
    def stub(name, check):
        return lambda *args: kernels.KernelResult(
            name=name, keys=1, wall_s=1.0, check=check)

    for scenario in ("scatter", "paradis", "lsb", "merge", "e2e"):
        monkeypatch.setattr(kernels, f"run_{scenario}", stub(scenario, True))
    monkeypatch.setattr(kernels, "run_mergepath", stub("mergepath", False))
    with pytest.raises(ReproError, match="checks failed: mergepath$"):
        kernels.run_kernels(quick=True, repeats=1, json_path=None)
