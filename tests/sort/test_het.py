"""Unit and integration tests of the heterogeneous multi-GPU sort."""

import numpy as np
import pytest

from repro.data import generate
from repro.errors import SortError
from repro.faults import FaultPlan, ResiliencePolicy
from repro.faults.events import GpuFail
from repro.hw import dgx_a100, ibm_ac922
from repro.runtime import Machine
from repro.sort import HetConfig, het_sort


def out_of_core_machine(scale=3_000_000):
    """A machine scaled so 60k physical keys span several chunk groups."""
    return Machine(ibm_ac922(), scale=scale, fast_functional=False)


class TestInCore:
    @pytest.mark.parametrize("gpu_ids", [(0,), (0, 1), (0, 1, 2, 3)])
    def test_sorted_output(self, ac922, gpu_ids, rng):
        data = rng.integers(-500, 500, size=3000).astype(np.int32)
        result = het_sort(ac922, data, gpu_ids=gpu_ids)
        assert np.array_equal(result.output, np.sort(data))
        assert result.chunk_groups == 1

    def test_single_gpu_has_no_merge_phase(self, dgx, rng):
        data = rng.integers(0, 100, size=1000).astype(np.int32)
        result = het_sort(dgx, data, gpu_ids=(0,))
        assert "Merge" not in result.phase_durations
        assert np.array_equal(result.output, np.sort(data))

    def test_multi_gpu_has_merge_phase(self, dgx, rng):
        data = rng.integers(0, 100, size=1000).astype(np.int32)
        result = het_sort(dgx, data, gpu_ids=(0, 2))
        assert "Merge" in result.phase_durations

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float32,
                                       np.float64])
    def test_dtypes(self, ac922, dtype, rng):
        if np.dtype(dtype).kind == "f":
            data = rng.normal(size=2000).astype(dtype)
        else:
            data = rng.integers(0, 10000, size=2000).astype(dtype)
        result = het_sort(ac922, data, gpu_ids=(0, 1))
        assert np.array_equal(result.output, np.sort(data))

    @pytest.mark.parametrize("distribution", [
        "uniform", "sorted", "reverse-sorted", "nearly-sorted", "normal"])
    def test_distributions(self, ac922, distribution):
        data = generate(2500, distribution, np.int32, seed=3)
        result = het_sort(ac922, data, gpu_ids=(0, 1, 2, 3))
        assert np.array_equal(result.output, np.sort(data))

    def test_odd_sizes(self, ac922, rng):
        for n in (1, 2, 3, 7, 1013):
            data = rng.integers(0, 50, size=n).astype(np.int32)
            result = het_sort(ac922, data, gpu_ids=(0, 1, 2))
            assert np.array_equal(result.output, np.sort(data)), n

    def test_gpu_count_need_not_be_power_of_two(self, dgx, rng):
        data = rng.integers(0, 1000, size=3000).astype(np.int32)
        result = het_sort(dgx, data, gpu_ids=(0, 2, 4))
        assert np.array_equal(result.output, np.sort(data))


class TestOutOfCore:
    @pytest.mark.parametrize("approach", ["2n", "3n"])
    def test_multiple_chunk_groups(self, approach, rng):
        machine = out_of_core_machine()
        data = rng.integers(0, 1 << 30, size=60_000).astype(np.int32)
        result = het_sort(machine, data, gpu_ids=(0, 1, 2, 3),
                          config=HetConfig(approach=approach))
        assert result.chunk_groups > 1
        assert np.array_equal(result.output, np.sort(data))

    @pytest.mark.parametrize("approach", ["2n", "3n"])
    def test_eager_merging_is_correct_but_slower(self, approach, rng):
        data = rng.integers(0, 1 << 30, size=60_000).astype(np.int32)
        plain = het_sort(out_of_core_machine(), data, gpu_ids=(0, 1, 2, 3),
                         config=HetConfig(approach=approach))
        eager = het_sort(out_of_core_machine(), data, gpu_ids=(0, 1, 2, 3),
                         config=HetConfig(approach=approach,
                                          eager_merge=True))
        assert np.array_equal(eager.output, np.sort(data))
        # Section 6.2: eager merging worsens performance.
        assert eager.duration > plain.duration

    def test_3n_uses_smaller_chunks_than_2n(self, rng):
        data = rng.integers(0, 100, size=60_000).astype(np.int32)
        two = het_sort(out_of_core_machine(), data, gpu_ids=(0, 1),
                       config=HetConfig(approach="2n"))
        three = het_sort(out_of_core_machine(), data, gpu_ids=(0, 1),
                         config=HetConfig(approach="3n"))
        assert three.chunk_groups > two.chunk_groups
        assert np.array_equal(two.output, three.output)

    def test_single_gpu_out_of_core(self, rng):
        machine = out_of_core_machine()
        data = rng.integers(0, 1 << 20, size=40_000).astype(np.int32)
        result = het_sort(machine, data, gpu_ids=(0,))
        assert result.chunk_groups > 1
        assert np.array_equal(result.output, np.sort(data))

    def test_uneven_last_group(self, rng):
        machine = out_of_core_machine()
        # A size that does not divide evenly into chunk groups.
        data = rng.integers(0, 1000, size=50_001).astype(np.int32)
        result = het_sort(machine, data, gpu_ids=(0, 1, 2))
        assert np.array_equal(result.output, np.sort(data))


class TestValidation:
    def test_unknown_approach_rejected(self, ac922):
        with pytest.raises(SortError, match="unknown approach"):
            het_sort(ac922, np.arange(8, dtype=np.int32),
                     config=HetConfig(approach="4n"))

    def test_duplicate_gpu_ids_rejected(self, ac922):
        with pytest.raises(SortError, match="duplicate"):
            het_sort(ac922, np.arange(8, dtype=np.int32), gpu_ids=(1, 1))

    def test_empty_input_rejected(self, ac922):
        with pytest.raises(SortError):
            het_sort(ac922, np.empty(0, dtype=np.int32))


class TestResultMetadata:
    def test_result_fields(self, dgx, rng):
        data = rng.integers(0, 100, size=2000).astype(np.int32)
        result = het_sort(dgx, data, gpu_ids=(0, 2))
        assert result.algorithm == "het"
        assert result.system == "dgx-a100"
        assert result.physical_keys == 2000
        assert result.keys_per_second > 0

    def test_phase_fractions(self, dgx, rng):
        data = rng.integers(0, 100, size=2000).astype(np.int32)
        result = het_sort(dgx, data, gpu_ids=(0, 2))
        for phase in ("HtoD", "Sort", "DtoH", "Merge"):
            assert 0 < result.phase_fraction(phase) <= 1

    def test_summary_mentions_algorithm(self, dgx, rng):
        data = rng.integers(0, 100, size=500).astype(np.int32)
        result = het_sort(dgx, data, gpu_ids=(0, 2))
        assert "het" in result.summary()


class TestPaperBehaviours:
    def test_het_slower_than_p2p_on_nvlink_pairs(self, rng):
        from repro.sort import p2p_sort

        data = rng.integers(0, 1 << 30, size=4096).astype(np.int32)

        def run(algorithm):
            machine = Machine(ibm_ac922(), scale=2_000_000,
                              fast_functional=True)
            return algorithm(machine, data, gpu_ids=(0, 1)).duration

        # Section 6.1.1: P2P sort outperforms HET sort on NVLink pairs.
        assert run(p2p_sort) < run(het_sort)

    def test_2n_and_3n_equal_in_core(self, rng):
        data = rng.integers(0, 1 << 30, size=4096).astype(np.int32)

        def run(approach):
            machine = Machine(dgx_a100(), scale=1_000_000,
                              fast_functional=True)
            return het_sort(machine, data, gpu_ids=(0, 2),
                            config=HetConfig(approach=approach)).duration

        # Section 6.1: for one chunk group the approaches coincide.
        assert run("2n") == pytest.approx(run("3n"), rel=1e-6)


class TestResilienceOverrideScope:
    """A per-call policy override never leaks onto the machine: success
    and error paths both restore it."""

    def test_override_restored_after_success(self, rng):
        machine = Machine(dgx_a100())
        original = machine.resilience
        data = rng.integers(0, 1 << 30, size=4096).astype(np.int32)
        result = het_sort(machine, data,
                          resilience=ResiliencePolicy(max_retries=9))
        assert np.array_equal(result.output, np.sort(data))
        assert machine.resilience is original

    def test_override_restored_after_failure(self, rng):
        machine = Machine(dgx_a100())
        machine.install_faults(FaultPlan(events=tuple(
            GpuFail(at=0.0, gpu=g) for g in range(8))))
        original = machine.resilience
        data = rng.integers(0, 1 << 30, size=4096).astype(np.int32)
        with pytest.raises(SortError, match="no healthy GPUs"):
            het_sort(machine, data,
                     resilience=ResiliencePolicy(max_retries=9))
        assert machine.resilience is original
