"""Unit tests of kernel launches and host-side compute operations."""

import numpy as np
import pytest

from repro.errors import RuntimeApiError
from repro.hw import dgx_a100, ibm_ac922
from repro.runtime import Machine
from repro.runtime.cpu_ops import cpu_multiway_merge, cpu_sort
from repro.runtime.kernels import merge_two_on_device, sort_on_device
from repro.runtime.memcpy import span
from repro.units import gb


class TestSortKernel:
    def test_sorts_payload(self, dgx, rng):
        buffer = dgx.device(0).alloc(5000, np.int32)
        buffer.data[:] = rng.integers(0, 1 << 30, size=5000)
        expected = np.sort(buffer.data)
        dgx.run(sort_on_device(dgx, span(buffer)))
        assert np.array_equal(buffer.data, expected)

    def test_duration_matches_table2(self):
        machine = Machine(dgx_a100(), scale=1000)
        buffer = machine.device(0).alloc(1_000_000, np.int32)
        machine.run(sort_on_device(machine, span(buffer)))
        assert machine.now * 1e3 == pytest.approx(36.0, rel=0.01)

    def test_primitive_changes_duration(self):
        durations = {}
        for primitive in ("thrust", "stehle", "mgpu"):
            machine = Machine(dgx_a100(), scale=1000)
            buffer = machine.device(0).alloc(1_000_000, np.int32)
            machine.run(sort_on_device(machine, span(buffer),
                                       primitive=primitive))
            durations[primitive] = machine.now
        assert durations["thrust"] < durations["stehle"] < durations["mgpu"]

    def test_exact_functional_mode_uses_primitive(self, dgx, rng):
        buffer = dgx.device(0).alloc(3000, np.float32)
        buffer.data[:] = rng.normal(size=3000).astype(np.float32)
        expected = np.sort(buffer.data)
        dgx.run(sort_on_device(dgx, span(buffer), primitive="stehle"))
        assert np.array_equal(buffer.data, expected)

    def test_trace_records_sort_phase(self, dgx, rng):
        buffer = dgx.device(0).alloc(100, np.int32)
        buffer.data[:] = rng.integers(0, 100, size=100)
        dgx.run(sort_on_device(dgx, span(buffer), phase="Sort"))
        assert dgx.trace.phases() == ["Sort"]


class TestMergeKernel:
    def test_merges_two_runs_in_place(self, dgx, rng):
        buffer = dgx.device(0).alloc(2000, np.int32)
        buffer.data[:1200] = np.sort(rng.integers(0, 1000, size=1200))
        buffer.data[1200:] = np.sort(rng.integers(0, 1000, size=800))
        expected = np.sort(buffer.data)
        dgx.run(merge_two_on_device(dgx, span(buffer), split=1200))
        assert np.array_equal(buffer.data, expected)

    def test_degenerate_splits_are_noops(self, dgx):
        buffer = dgx.device(0).alloc(100, np.int32)
        buffer.data[:] = np.arange(100)
        dgx.run(merge_two_on_device(dgx, span(buffer), split=0))
        assert np.array_equal(buffer.data, np.arange(100))

    def test_split_bounds_checked(self, dgx):
        buffer = dgx.device(0).alloc(10, np.int32)
        with pytest.raises(ValueError):
            dgx.run(merge_two_on_device(dgx, span(buffer), split=11))

    def test_duration_uses_merge_rate(self):
        machine = Machine(dgx_a100(), scale=1000)
        buffer = machine.device(0).alloc(1_000_000, np.int32)
        buffer.data[:500_000] = np.arange(500_000)
        buffer.data[500_000:] = np.arange(500_000)
        machine.run(merge_two_on_device(machine, span(buffer), 500_000))
        assert machine.now == pytest.approx(4e9 / gb(380.0), rel=0.01)


class TestCpuSort:
    def test_sorts_host_buffer(self, ac922, rng):
        buffer = ac922.host_buffer(
            rng.integers(0, 1 << 30, size=4000).astype(np.int32))
        expected = np.sort(buffer.data)
        ac922.run(cpu_sort(ac922, buffer))
        assert np.array_equal(buffer.data, expected)

    def test_duration_matches_paradis_rate(self):
        machine = Machine(ibm_ac922(), scale=1000)
        buffer = machine.host_buffer(np.zeros(1_000_000, np.int32))
        machine.run(cpu_sort(machine, buffer, primitive="paradis"))
        assert machine.now == pytest.approx(4e9 / gb(2.35), rel=0.01)

    def test_defaults_to_best_primitive(self, dgx, rng):
        buffer = dgx.host_buffer(
            rng.integers(0, 100, size=100).astype(np.int32))
        dgx.run(cpu_sort(dgx, buffer))
        assert np.array_equal(buffer.data, np.sort(buffer.data))


class TestCpuMultiwayMerge:
    def test_merges_runs(self, ac922, rng):
        runs = [np.sort(rng.integers(0, 500, size=n).astype(np.int32))
                for n in (100, 250, 50)]
        out = np.empty(400, dtype=np.int32)
        ac922.run(cpu_multiway_merge(ac922, out, runs))
        assert np.array_equal(out, np.sort(np.concatenate(runs)))

    def test_size_mismatch_rejected(self, ac922):
        out = np.empty(10, dtype=np.int32)
        with pytest.raises(Exception):
            ac922.run(cpu_multiway_merge(
                ac922, out, [np.zeros(4, np.int32)]))

    def test_merges_records_stably(self, ac922):
        runs = [np.array([1, 3, 3], np.int32), np.array([2, 3], np.int32)]
        value_runs = [np.array([10, 11, 12]), np.array([20, 21])]
        out = np.empty(5, np.int32)
        values_out = np.empty(5, np.int64)
        ac922.run(cpu_multiway_merge(ac922, out, runs, values_out=values_out,
                                     value_runs=value_runs))
        assert out.tolist() == [1, 2, 3, 3, 3]
        assert values_out.tolist() == [10, 20, 11, 12, 21]

    def test_value_run_mismatch_rejected(self, ac922):
        runs = [np.zeros(3, np.int32), np.zeros(2, np.int32)]
        with pytest.raises(RuntimeApiError, match="one value run"):
            ac922.run(cpu_multiway_merge(
                ac922, np.empty(5, np.int32), runs,
                values_out=np.empty(5, np.int64),
                value_runs=[np.zeros(3, np.int64)]))

    def test_k_factor_slows_wide_merges(self):
        def merge_time(k):
            machine = Machine(ibm_ac922(), scale=1000)
            per_run = 1_000_000 // k
            runs = [np.zeros(per_run, np.int32) for _ in range(k)]
            out = np.empty(per_run * k, dtype=np.int32)
            machine.run(cpu_multiway_merge(machine, out, runs))
            return machine.now

        # Section 6.1.1: four chunks take ~8% longer than two.
        assert merge_time(4) / merge_time(2) == pytest.approx(1.08, rel=0.01)

    def test_competes_with_gpu_copies_for_memory(self):
        # Section 6.2: a concurrent CPU merge slows CPU-GPU copies.
        from repro.runtime.memcpy import copy_async

        def copy_time(with_merge: bool) -> float:
            machine = Machine(ibm_ac922(), scale=2000)
            host = machine.host_buffer(np.zeros(2_000_000, np.int32))
            dev = machine.device(0).alloc(2_000_000, np.int32)

            def scenario():
                procs = [machine.env.process(
                    copy_async(machine, span(dev), span(host)))]
                if with_merge:
                    big = np.zeros(4_000_000, np.int32)
                    out = np.empty_like(big)
                    procs.append(machine.env.process(cpu_multiway_merge(
                        machine, out, [big])))
                yield machine.env.all_of(procs)

            machine.run(scenario())
            return machine.now

        assert copy_time(with_merge=True) > copy_time(with_merge=False)


class TestLegacyFastFunctionalKeyword:
    """``Machine(spec, fast_functional=...)`` is accepted and ignored."""

    @staticmethod
    def _run(sort, **machine_kwargs):
        from repro.sort import het_sort, p2p_sort

        rng = np.random.default_rng(5)
        keys = rng.standard_normal(20_001).astype(np.float32)
        keys[::1000] = -0.0
        machine = Machine(ibm_ac922(), scale=1e5, **machine_kwargs)
        sorter = {"p2p": p2p_sort, "het": het_sort}[sort]
        result = sorter(machine, keys, gpu_ids=(0, 1))
        return result, machine.env.events_retired

    @pytest.mark.parametrize("sort", ["p2p", "het"])
    def test_keyword_changes_nothing(self, sort):
        plain, plain_events = self._run(sort)
        for fast in (True, False):
            legacy, events = self._run(sort, fast_functional=fast)
            assert np.array_equal(legacy.output.view(np.uint32),
                                  plain.output.view(np.uint32))
            assert legacy.duration == plain.duration
            assert legacy.phase_durations == plain.phase_durations
            assert events == plain_events

