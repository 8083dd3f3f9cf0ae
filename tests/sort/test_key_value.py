"""Key-value (payload) sorting across all three multi-GPU algorithms.

Validation scheme: payloads are the original positions, so the output
is checked by (a) sortedness of the keys, (b) ``keys[positions] ==
output`` — every payload still sits next to its own key even under
heavy duplication — and (c) the positions being a permutation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpuprims import multiway_merge_with_values
from repro.errors import SortError
from repro.gpuprims import merge_sorted_with_values
from repro.hw import dgx_a100, ibm_ac922
from repro.runtime import Machine
from repro.sort import HetConfig, P2PConfig, het_sort, p2p_sort, rp_sort


def check_kv(keys: np.ndarray, result) -> None:
    out = result.output.astype(np.int64)
    assert np.all(out[:-1] <= out[1:]) if out.size > 1 else True
    assert np.array_equal(keys[result.output_values], result.output)
    assert np.array_equal(np.sort(result.output_values),
                          np.arange(len(keys)))


def kv_workload(rng, n, lo=0, hi=50):
    keys = rng.integers(lo, hi, size=n).astype(np.int32)
    values = np.arange(n, dtype=np.int64)
    return keys, values


class TestPrimitives:
    def test_merge_sorted_with_values(self, rng):
        a = np.sort(rng.integers(0, 100, size=200).astype(np.int32))
        b = np.sort(rng.integers(0, 100, size=150).astype(np.int32))
        va = np.arange(200, dtype=np.int64)
        vb = np.arange(200, 350, dtype=np.int64)
        keys, values = merge_sorted_with_values(a, b, va, vb)
        everything = np.concatenate([a, b])
        assert np.array_equal(keys, np.sort(everything))
        # Each (key, value) output pair existed in the input.
        pairs_in = set(zip(everything.tolist(),
                           np.concatenate([va, vb]).tolist()))
        pairs_out = set(zip(keys.tolist(), values.tolist()))
        assert pairs_out == pairs_in

    def test_merge_values_length_mismatch(self):
        with pytest.raises(SortError):
            merge_sorted_with_values(np.zeros(2, np.int32),
                                     np.zeros(2, np.int32),
                                     np.zeros(1, np.int64),
                                     np.zeros(2, np.int64))

    def test_multiway_merge_with_values(self, rng):
        runs, value_runs, pairs = [], [], set()
        offset = 0
        for _ in range(5):
            size = int(rng.integers(0, 120))
            keys = np.sort(rng.integers(0, 30, size=size).astype(np.int32))
            values = np.arange(offset, offset + size, dtype=np.int64)
            offset += size
            runs.append(keys)
            value_runs.append(values)
            pairs |= set(zip(keys.tolist(), values.tolist()))
        keys, values = multiway_merge_with_values(runs, value_runs)
        assert np.all(np.diff(keys.astype(np.int64)) >= 0)
        assert set(zip(keys.tolist(), values.tolist())) == pairs

    def test_multiway_merge_values_validation(self):
        with pytest.raises(SortError):
            multiway_merge_with_values([np.zeros(2, np.int32)], [])
        with pytest.raises(SortError):
            multiway_merge_with_values([np.zeros(2, np.int32)],
                                       [np.zeros(3, np.int64)])


class TestP2PKeyValue:
    @pytest.mark.parametrize("gpu_ids", [(0, 1), (0, 1, 2, 3)])
    def test_values_follow_keys(self, ac922, gpu_ids, rng):
        keys, values = kv_workload(rng, 4096)
        result = p2p_sort(ac922, keys, values=values, gpu_ids=gpu_ids)
        check_kv(keys, result)

    def test_padded_sizes(self, ac922, rng):
        for n in (1001, 4095, 7):
            keys, values = kv_workload(rng, n)
            result = p2p_sort(ac922, keys, values=values,
                              gpu_ids=(0, 1, 2, 3))
            check_kv(keys, result)

    def test_max_key_duplicates_survive_padding(self, ac922):
        # The maximal key appears many times and n is not divisible by
        # g: padding must not steal or invent payloads.
        keys = np.array([5, 9, 9, 9, 1, 9, 3], dtype=np.int32)
        values = np.arange(7, dtype=np.int64)
        result = p2p_sort(ac922, keys, values=values, gpu_ids=(0, 1))
        check_kv(keys, result)

    def test_serialized_swap_with_values(self, ac922, rng):
        keys, values = kv_workload(rng, 2048)
        result = p2p_sort(ac922, keys, values=values, gpu_ids=(0, 1),
                          config=P2PConfig(out_of_place_swap=False))
        check_kv(keys, result)

    def test_multihop_with_values(self, delta, rng):
        keys, values = kv_workload(rng, 2048)
        result = p2p_sort(delta, keys, values=values,
                          gpu_ids=(0, 1, 2, 3),
                          config=P2PConfig(multihop=True))
        check_kv(keys, result)

    def test_value_length_mismatch_rejected(self, ac922):
        with pytest.raises(SortError, match="values"):
            p2p_sort(ac922, np.arange(8, dtype=np.int32),
                     values=np.arange(7), gpu_ids=(0, 1))

    def test_payload_slows_sort_by_byte_ratio(self, rng):
        keys = rng.integers(0, 1 << 30, size=50_000).astype(np.int32)
        values = np.arange(50_000, dtype=np.int64)
        scale = 2e9 / keys.size

        def run(with_values):
            machine = Machine(dgx_a100(), scale=scale)
            return p2p_sort(machine, keys,
                            values=values if with_values else None).duration

        ratio = run(True) / run(False)
        # int32 keys + int64 payloads = 3x the bytes everywhere.
        assert 2.5 < ratio < 3.3


class TestHetKeyValue:
    def test_in_core(self, dgx, rng):
        keys, values = kv_workload(rng, 3000)
        result = het_sort(dgx, keys, values=values, gpu_ids=(0, 2, 4))
        check_kv(keys, result)

    def test_single_gpu(self, dgx, rng):
        keys, values = kv_workload(rng, 1500)
        result = het_sort(dgx, keys, values=values, gpu_ids=(0,))
        check_kv(keys, result)

    @pytest.mark.parametrize("approach", ["2n", "3n"])
    @pytest.mark.parametrize("eager", [False, True])
    @pytest.mark.usefixtures("copy_oracle")
    def test_out_of_core(self, approach, eager, rng):
        machine = Machine(ibm_ac922(), scale=3_000_000)
        keys, values = kv_workload(rng, 50_000, hi=1 << 30)
        result = het_sort(machine, keys, values=values,
                          gpu_ids=(0, 1, 2, 3),
                          config=HetConfig(approach=approach,
                                           eager_merge=eager))
        assert result.chunk_groups > 1
        check_kv(keys, result)

    def test_value_length_mismatch_rejected(self, dgx):
        with pytest.raises(SortError, match="values"):
            het_sort(dgx, np.arange(8, dtype=np.int32),
                     values=np.arange(9))


class TestRPKeyValue:
    def test_values_follow_keys(self, dgx, rng):
        keys, values = kv_workload(rng, 4001)
        result = rp_sort(dgx, keys, values=values)
        check_kv(keys, result)

    def test_float_keys_int_values(self, dgx, rng):
        keys = rng.normal(size=2000).astype(np.float32)
        values = np.arange(2000, dtype=np.int64)
        result = rp_sort(dgx, keys, values=values, gpu_ids=(0, 2, 4))
        assert np.array_equal(keys[result.output_values], result.output)

    def test_exchange_volume_includes_payload(self, rng):
        keys = rng.integers(0, 1 << 30, size=40_000).astype(np.int32)
        values = np.arange(40_000, dtype=np.int64)
        machine = Machine(dgx_a100(), scale=1000)
        with_payload = rp_sort(machine, keys, values=values)
        machine2 = Machine(dgx_a100(), scale=1000)
        without = rp_sort(machine2, keys)
        assert with_payload.p2p_bytes == pytest.approx(
            3.0 * without.p2p_bytes, rel=0.01)


class TestCrossAlgorithmAgreement:
    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=200))
    @settings(max_examples=15, deadline=None)
    def test_all_algorithms_agree(self, raw_keys):
        keys = np.array(raw_keys, dtype=np.int32)
        values = np.arange(keys.size, dtype=np.int64)
        outputs = []
        for sorter, kwargs in [
            (p2p_sort, {"gpu_ids": (0, 2)}),
            (het_sort, {"gpu_ids": (0, 2)}),
            (rp_sort, {"gpu_ids": (0, 2)}),
        ]:
            machine = Machine(dgx_a100(), scale=1)
            result = sorter(machine, keys, values=values, **kwargs)
            check_kv(keys, result)
            outputs.append(result.output)
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[1], outputs[2])
