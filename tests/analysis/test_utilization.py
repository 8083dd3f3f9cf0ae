"""Tests of the per-actor utilization analysis."""

import numpy as np
import pytest

from repro.analysis import load_imbalance, utilization_report
from repro.sim.trace import Trace


class TestUtilizationReport:
    @pytest.fixture
    def trace(self, env):
        trace = Trace(env)
        trace.record("HtoD", "gpu0", 0.0, end=1.0)
        trace.record("Sort", "gpu0", 1.0, end=2.0)
        trace.record("HtoD", "gpu1", 0.0, end=4.0)
        return trace

    def test_busy_time_and_fraction(self, trace):
        report = {u.actor: u for u in utilization_report(trace)}
        assert report["gpu0"].busy == pytest.approx(2.0)
        assert report["gpu0"].window == pytest.approx(4.0)
        assert report["gpu0"].fraction == pytest.approx(0.5)
        assert report["gpu1"].fraction == pytest.approx(1.0)

    def test_by_phase_split(self, trace):
        report = {u.actor: u for u in utilization_report(trace)}
        assert report["gpu0"].by_phase == {"HtoD": 1.0, "Sort": 1.0}

    def test_explicit_window(self, trace):
        report = utilization_report(trace, window=8.0)
        assert all(u.window == 8.0 for u in report)

    def test_window_is_optional(self, trace):
        # None means "use the trace extent" — same as omitting it.
        implicit = utilization_report(trace)
        explicit = utilization_report(trace, window=None)
        assert [u.window for u in explicit] == [u.window for u in implicit]

    @pytest.mark.parametrize("window", [0.0, -1.0])
    def test_non_positive_window_rejected(self, trace, window):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="window must be positive"):
            utilization_report(trace, window=window)

    def test_empty_trace(self, env):
        assert utilization_report(Trace(env)) == []

    def test_sort_run_utilization(self, rng, dgx):
        from repro.sort import p2p_sort

        data = rng.integers(0, 1000, size=2048).astype(np.int32)
        p2p_sort(dgx, data, gpu_ids=(0, 2))
        report = {u.actor: u for u in utilization_report(dgx.trace)}
        assert "gpu0" in report and "gpu2" in report
        assert report["gpu0"].busy > 0


class TestLoadImbalance:
    def test_spread_per_phase(self, env):
        trace = Trace(env)
        trace.record("Sort", "gpu0", 0.0, end=1.0)
        trace.record("Sort", "gpu1", 0.0, end=3.0)
        low, high = load_imbalance(trace, "Sort")
        assert (low, high) == (1.0, 3.0)

    def test_missing_phase(self, env):
        assert load_imbalance(Trace(env), "Merge") == (0.0, 0.0)

    def test_remote_gpus_straggle_on_ac922(self, rng):
        # Figure 2's NUMA cliff shows up as HtoD imbalance: GPUs behind
        # the X-Bus take much longer to receive their chunks.
        from repro.hw import ibm_ac922
        from repro.runtime import Machine
        from repro.sort import p2p_sort

        machine = Machine(ibm_ac922(), scale=20_000)
        data = rng.integers(0, 1 << 30, size=100_000).astype(np.int32)
        p2p_sort(machine, data, gpu_ids=(0, 1, 2, 3))
        low, high = load_imbalance(machine.trace, "HtoD")
        assert high > 2.0 * low
