"""Unit and integration tests of the P2P multi-GPU sort."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generate
from repro.errors import RuntimeApiError, SortError
from repro.faults import FaultPlan, ResiliencePolicy
from repro.faults.events import GpuFail
from repro.hw import dgx_a100, ibm_ac922
from repro.runtime import Machine
from repro.runtime.memcpy import span
from repro.sort import P2PConfig, p2p_sort
from repro.sort.p2p import P2PStats, p2p_pipeline


class TestCorrectness:
    @pytest.mark.parametrize("gpu_ids", [(0,), (0, 1), (0, 1, 2, 3)])
    def test_sorted_output_ac922(self, ac922, gpu_ids, rng):
        data = rng.integers(-1000, 1000, size=4096).astype(np.int32)
        result = p2p_sort(ac922, data, gpu_ids=gpu_ids)
        assert np.array_equal(result.output, np.sort(data))

    def test_eight_gpus_dgx(self, dgx, rng):
        data = rng.integers(0, 1 << 30, size=8192).astype(np.int32)
        result = p2p_sort(dgx, data)
        assert result.gpu_ids == tuple(range(8))
        assert np.array_equal(result.output, np.sort(data))

    @pytest.mark.parametrize("distribution", [
        "uniform", "normal", "sorted", "reverse-sorted", "nearly-sorted"])
    def test_all_distributions(self, delta, distribution):
        data = generate(2048, distribution, np.int32, seed=11)
        result = p2p_sort(delta, data, gpu_ids=(0, 1, 2, 3))
        assert np.array_equal(result.output, np.sort(data))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float32,
                                       np.float64, np.uint32])
    def test_all_dtypes(self, ac922, dtype, rng):
        if np.dtype(dtype).kind == "f":
            data = rng.normal(size=1024).astype(dtype)
        else:
            data = rng.integers(0, 1000, size=1024).astype(dtype)
        result = p2p_sort(ac922, data, gpu_ids=(0, 1))
        assert np.array_equal(result.output, np.sort(data))

    def test_size_not_divisible_by_gpus(self, ac922, rng):
        data = rng.integers(0, 100, size=1001).astype(np.int32)
        result = p2p_sort(ac922, data, gpu_ids=(0, 1, 2, 3))
        assert result.output.size == 1001
        assert np.array_equal(result.output, np.sort(data))

    def test_duplicate_heavy_input(self, ac922, rng):
        data = rng.integers(0, 3, size=2048).astype(np.int32)
        result = p2p_sort(ac922, data, gpu_ids=(0, 1, 2, 3))
        assert np.array_equal(result.output, np.sort(data))

    def test_input_not_modified(self, ac922, rng):
        data = rng.integers(0, 100, size=512).astype(np.int32)
        snapshot = data.copy()
        p2p_sort(ac922, data, gpu_ids=(0, 1))
        assert np.array_equal(data, snapshot)

    def test_tiny_input_on_many_gpus(self, dgx):
        data = np.array([3, 1, 2], dtype=np.int32)
        result = p2p_sort(dgx, data, gpu_ids=(0, 1, 2, 3))
        assert list(result.output) == [1, 2, 3]

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_property_sorted(self, values):
        machine = Machine(ibm_ac922(), scale=1)
        data = np.array(values, dtype=np.int32)
        result = p2p_sort(machine, data, gpu_ids=(0, 1, 2, 3))
        assert np.array_equal(result.output, np.sort(data))


class TestValidation:
    def test_non_power_of_two_rejected(self, ac922):
        with pytest.raises(SortError, match="power-of-two"):
            p2p_sort(ac922, np.arange(8, dtype=np.int32), gpu_ids=(0, 1, 2))

    def test_duplicate_gpu_ids_rejected(self, ac922):
        with pytest.raises(SortError, match="duplicate"):
            p2p_sort(ac922, np.arange(8, dtype=np.int32), gpu_ids=(0, 0))

    def test_empty_input_rejected(self, ac922):
        with pytest.raises(SortError):
            p2p_sort(ac922, np.empty(0, dtype=np.int32))

    def test_pipeline_rejects_a_source_shorter_than_the_chunk(self, ac922):
        # Every span of p2p_pipeline has the chunk length; a short one
        # must not land in a prefix of the device buffer.
        host = ac922.host_buffer(np.arange(16, dtype=np.int32)[::-1].copy())
        out = ac922.host_buffer(np.empty(16, dtype=np.int32))
        sources = [span(host, 0, 8), span(host, 8, 15)]
        outputs = [span(out, 0, 8), span(out, 8, 16)]
        with pytest.raises(RuntimeApiError, match="copy size mismatch"):
            ac922.run(p2p_pipeline(ac922, (0, 1), sources, outputs,
                                   P2PConfig(), P2PStats()))

    def test_oversized_data_rejected(self):
        machine = Machine(ibm_ac922(), scale=1e9)
        data = np.zeros(100_000, dtype=np.int32)  # 400 TB logical
        with pytest.raises(SortError, match="HET sort"):
            p2p_sort(machine, data, gpu_ids=(0, 1))


class TestResultMetadata:
    def test_phases_recorded(self, ac922, rng):
        data = rng.integers(0, 100, size=1024).astype(np.int32)
        result = p2p_sort(ac922, data, gpu_ids=(0, 1))
        assert set(result.phase_durations) == {"HtoD", "Sort", "Merge",
                                               "DtoH"}
        assert result.duration > 0
        assert result.algorithm == "p2p"

    def test_merge_stage_depth(self, dgx, rng):
        data = rng.integers(0, 100, size=1024).astype(np.int32)
        assert p2p_sort(dgx, data, gpu_ids=(0, 2)).merge_stages == 1
        assert p2p_sort(Machine(dgx_a100(), scale=1), data,
                        gpu_ids=(0, 2, 4, 6)).merge_stages == 3
        assert p2p_sort(Machine(dgx_a100(), scale=1), data).merge_stages == 5

    def test_p2p_bytes_zero_for_sorted_input(self, ac922):
        data = np.arange(1024, dtype=np.int32)
        result = p2p_sort(ac922, data, gpu_ids=(0, 1))
        assert result.p2p_bytes == 0.0

    def test_p2p_bytes_maximal_for_reversed_input(self, ac922):
        data = np.arange(1024, dtype=np.int32)[::-1].copy()
        result = p2p_sort(ac922, data, gpu_ids=(0, 1))
        # Full swap: the whole array crosses the interconnect, both
        # chunks, one direction each.
        assert result.p2p_bytes == pytest.approx(1024 * 4)

    def test_logical_keys_respect_scale(self, rng):
        machine = Machine(ibm_ac922(), scale=1000)
        data = rng.integers(0, 100, size=1024).astype(np.int32)
        result = p2p_sort(machine, data, gpu_ids=(0, 1))
        assert result.logical_keys == 1024 * 1000


class TestConfigVariants:
    def test_paper_pivot_variant_sorts(self, ac922, rng):
        data = rng.integers(0, 10, size=2048).astype(np.int32)
        result = p2p_sort(ac922, data, gpu_ids=(0, 1, 2, 3),
                          config=P2PConfig(leftmost_pivot=False))
        assert np.array_equal(result.output, np.sort(data))

    def test_serialized_swap_sorts_and_is_slower(self, rng):
        data = rng.integers(0, 1 << 20, size=4096).astype(np.int32)
        fast = p2p_sort(Machine(ibm_ac922(), scale=2_000_000),
                        data, gpu_ids=(0, 1))
        slow = p2p_sort(Machine(ibm_ac922(), scale=2_000_000),
                        data, gpu_ids=(0, 1),
                        config=P2PConfig(out_of_place_swap=False))
        assert np.array_equal(slow.output, np.sort(data))
        assert slow.duration > fast.duration

    def test_other_primitive(self, ac922, rng):
        data = rng.integers(0, 1000, size=1024).astype(np.int32)
        result = p2p_sort(ac922, data, gpu_ids=(0, 1),
                          config=P2PConfig(primitive="stehle"))
        assert np.array_equal(result.output, np.sort(data))


class TestGpuOrderEffect:
    def test_ac922_order_matters(self, rng):
        data = rng.integers(0, 1 << 20, size=4096).astype(np.int32)

        def run(order):
            machine = Machine(ibm_ac922(), scale=2_000_000)
            return p2p_sort(machine, data, gpu_ids=order).duration

        # Section 5.4: (0, 1, 2, 3) pairs NVLink-connected GPUs in the
        # pairwise stages; (0, 2, 1, 3) forces them over the X-Bus.
        assert run((0, 1, 2, 3)) < run((0, 2, 1, 3))

    def test_dgx_order_is_irrelevant(self, rng):
        data = rng.integers(0, 1 << 20, size=4096).astype(np.int32)

        def run(order):
            machine = Machine(dgx_a100(), scale=2_000_000)
            return p2p_sort(machine, data, gpu_ids=order).duration

        assert run((0, 1, 2, 3)) == pytest.approx(run((0, 3, 1, 2)),
                                                  rel=1e-6)


class TestResilienceOverrideScope:
    """A per-call policy override never leaks onto the machine: success
    and error paths both restore it."""

    def test_override_restored_after_success(self, rng):
        machine = Machine(dgx_a100())
        original = machine.resilience
        data = rng.integers(0, 1 << 30, size=4096).astype(np.int32)
        result = p2p_sort(machine, data,
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
            p2p_sort(machine, data,
                     resilience=ResiliencePolicy(max_retries=9))
        assert machine.resilience is original


class TestMidRunGpuLoss:
    """A plain sort that loses a GPU mid-run replans onto the survivors
    and leaves the machine as reusable as a fresh one."""

    PHYSICAL = 200_000

    def _machine(self) -> Machine:
        return Machine(dgx_a100(), scale=2.0e9 / self.PHYSICAL)

    def test_lost_gpu_replans_and_machine_stays_reusable(self):
        data = generate(self.PHYSICAL, "uniform", np.int32, seed=42)
        machine = self._machine()
        machine.install_faults(FaultPlan(events=(GpuFail(at=0.05, gpu=5),)))
        result = p2p_sort(machine, data)
        assert result.gpu_ids == (0, 1, 2, 3)
        assert result.replans == 1
        assert np.array_equal(result.output, np.sort(data))
        # Nothing of the failed attempt is left behind.
        assert all(device.allocated_logical == 0.0
                   for device in machine.devices)
        assert machine.net.active_flows == []
        assert machine.in_flight == {}

        retry = p2p_sort(machine, data, gpu_ids=(0, 1, 2, 3))
        fresh = p2p_sort(self._machine(), data, gpu_ids=(0, 1, 2, 3))
        assert np.array_equal(retry.output, fresh.output)
        # The retry starts on a later clock, which moves the last bits.
        assert retry.duration == pytest.approx(fresh.duration, rel=1e-12)
