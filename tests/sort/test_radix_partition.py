"""Unit and integration tests of the partition-based RP sort."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generate
from repro.errors import SortError
from repro.hw import dgx_a100, ibm_ac922
from repro.runtime import Machine
from repro.sort import RPConfig, p2p_sort, rp_sort


class TestCorrectness:
    @pytest.mark.parametrize("distribution", [
        "uniform", "normal", "sorted", "reverse-sorted", "nearly-sorted"])
    def test_all_distributions(self, dgx, distribution):
        data = generate(4096, distribution, np.int32, seed=4)
        result = rp_sort(dgx, data)
        assert np.array_equal(result.output, np.sort(data))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float32,
                                       np.float64])
    def test_dtypes(self, dgx, dtype, rng):
        if np.dtype(dtype).kind == "f":
            data = rng.normal(size=2048).astype(dtype)
        else:
            data = rng.integers(-5000, 5000, size=2048).astype(dtype)
        result = rp_sort(dgx, data)
        assert np.array_equal(result.output, np.sort(data))

    @pytest.mark.parametrize("gpu_ids", [(0,), (0, 2), (0, 2, 4),
                                         (0, 1, 2, 3, 4), tuple(range(8))])
    def test_any_gpu_count(self, dgx, gpu_ids, rng):
        # RP sort is not limited to powers of two.
        data = rng.integers(0, 1 << 30, size=3001).astype(np.int32)
        result = rp_sort(dgx, data, gpu_ids=gpu_ids)
        assert np.array_equal(result.output, np.sort(data))

    def test_tiny_input(self, dgx):
        data = np.array([9, 1, 5], dtype=np.int32)
        result = rp_sort(dgx, data, gpu_ids=(0, 1, 2, 3))
        assert list(result.output) == [1, 5, 9]

    def test_duplicate_heavy(self, dgx, rng):
        data = rng.integers(0, 4, size=4096).astype(np.int32)
        result = rp_sort(dgx, data, config=RPConfig(slack=2.5))
        assert np.array_equal(result.output, np.sort(data))

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=400))
    @settings(max_examples=25, deadline=None)
    def test_property_sorted(self, values):
        machine = Machine(dgx_a100(), scale=1)
        data = np.array(values, dtype=np.int32)
        result = rp_sort(machine, data, gpu_ids=(0, 1, 2, 3),
                         config=RPConfig(slack=4.0))
        assert np.array_equal(result.output, np.sort(data))


class TestValidation:
    def test_empty_rejected(self, dgx):
        with pytest.raises(SortError):
            rp_sort(dgx, np.empty(0, np.int32))

    def test_duplicate_ids_rejected(self, dgx):
        with pytest.raises(SortError, match="duplicate"):
            rp_sort(dgx, np.arange(8, dtype=np.int32), gpu_ids=(0, 0))

    def test_bad_config_rejected(self, dgx):
        with pytest.raises(SortError):
            rp_sort(dgx, np.arange(8, dtype=np.int32),
                    config=RPConfig(slack=0.5))
        with pytest.raises(SortError):
            rp_sort(dgx, np.arange(8, dtype=np.int32),
                    config=RPConfig(oversample=0))

    def test_imbalance_detected(self, dgx, monkeypatch):
        # Degenerate splitters funnel everything into one bucket: the
        # overflow must fail loudly rather than corrupt the receive
        # buffers.  (Real splitters spread ties by sample rank, so this
        # needs sabotage to trigger.)
        import repro.sort.radix_partition as rp

        monkeypatch.setattr(
            rp, "_splitters",
            lambda samples, parts: (np.zeros(parts - 1, samples.dtype),
                                    {}))
        data = np.arange(1, 4097, dtype=np.int32)
        with pytest.raises(SortError, match="imbalance"):
            rp.rp_sort(dgx, data, gpu_ids=(0, 1, 2, 3),
                       config=RPConfig(slack=1.05))

    def test_ties_spread_keeps_balance(self, dgx):
        # All-equal keys would previously overflow one bucket; the
        # rank-based tie split keeps even degenerate inputs balanced
        # under the default slack.
        data = np.zeros(4096, dtype=np.int32)
        result = rp_sort(dgx, data, gpu_ids=(0, 1, 2, 3))
        assert np.array_equal(result.output, data)

    def test_zipf_skew_balanced_by_default(self, dgx):
        from repro.data import generate

        data = generate(20_000, "zipf", np.int32, seed=1)
        result = rp_sort(dgx, data)
        assert np.array_equal(result.output, np.sort(data))

    def test_oversized_data_rejected(self):
        machine = Machine(dgx_a100(), scale=1e9)
        with pytest.raises(SortError, match="RP sort needs"):
            rp_sort(machine, np.zeros(200_000, np.int32))


class TestResultMetadata:
    def test_phases(self, dgx, rng):
        data = rng.integers(0, 1000, size=2048).astype(np.int32)
        result = rp_sort(dgx, data)
        assert set(result.phase_durations) == {
            "HtoD", "Partition", "Exchange", "Sort", "DtoH"}
        assert result.algorithm == "rp"
        assert result.merge_stages == 1

    def test_exchange_volume_bounded(self, rng):
        # Expected cross-GPU volume is ~ n * (g-1)/g.
        machine = Machine(dgx_a100(), scale=1000)
        data = rng.integers(0, 1 << 30, size=80_000).astype(np.int32)
        result = rp_sort(machine, data)
        expected = data.nbytes * 1000 * 7 / 8
        assert 0.8 * expected < result.p2p_bytes < 1.2 * expected


class TestPaperHypothesis:
    def test_rp_moves_less_data_than_p2p_sort(self, rng):
        data = rng.integers(0, 1 << 30, size=100_000).astype(np.int32)
        scale = 2e9 / data.size
        rp = rp_sort(Machine(dgx_a100(), scale=scale), data)
        pp = p2p_sort(Machine(dgx_a100(), scale=scale), data)
        # Section 7: keys cross the interconnect only once.
        assert rp.p2p_bytes < 0.5 * pp.p2p_bytes

    def test_rp_beats_p2p_sort_on_nvswitch(self, rng):
        data = rng.integers(0, 1 << 30, size=100_000).astype(np.int32)
        scale = 2e9 / data.size
        rp = rp_sort(Machine(dgx_a100(), scale=scale), data)
        pp = p2p_sort(Machine(dgx_a100(), scale=scale), data)
        assert rp.duration < pp.duration

    def test_rp_does_not_beat_p2p_on_xbus_topology(self, rng):
        # Without all-to-all links the single exchange still crosses
        # the X-Bus, so RP sort loses its edge.
        data = rng.integers(0, 1 << 30, size=100_000).astype(np.int32)
        scale = 2e9 / data.size
        rp = rp_sort(Machine(ibm_ac922(), scale=scale), data,
                     gpu_ids=(0, 1, 2, 3))
        pp = p2p_sort(Machine(ibm_ac922(), scale=scale), data,
                      gpu_ids=(0, 1, 2, 3))
        assert rp.duration > 0.9 * pp.duration


class TestObservability:
    def test_phases_nest_under_an_rp_sort_root_span(self, rng):
        # Like every other sort, RP sort brackets its run in a root span
        # when observability is on.
        machine = Machine(dgx_a100(), scale=1e5)
        machine.enable_observability()
        data = rng.integers(0, 1 << 30, size=4096).astype(np.int32)
        rp_sort(machine, data)
        roots = [s for s in machine.trace.spans if s.phase == "RPSort"]
        assert len(roots) == 1
        root = roots[0]
        assert root.parent is None
        assert root.bytes == data.nbytes * machine.scale
        phases = [s for s in machine.trace.spans if s is not root]
        assert {s.phase for s in phases} == {
            "HtoD", "Partition", "Exchange", "Sort", "DtoH"}
        assert all(s.parent == root.id for s in phases)
