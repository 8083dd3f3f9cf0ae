"""Regression tests: special float keys through the sort pipelines.

Every pipeline sorts in NumPy's order (``-0.0`` ties ``+0.0``, NaNs
last) and returns a bit-level permutation of its input.  These pin the
failures the input fuzzer found: a sign-bit NaN crashing the merge, the
float pad sentinel leaking into the output, and NaN payloads being
canonicalized.
"""

import numpy as np
import pytest

from repro.gpuprims.functional import (merge_in_place, sort_in_place,
                                      sort_into)
from repro.hw import dgx_a100, make_cluster
from repro.recovery import SortSupervisor
from repro.runtime import Machine
from repro.serve.job import JobSpec
from repro.serve.service import SortService
from repro.sort import het_sort, hier_sort, p2p_sort, rp_sort
from repro.sort.pivot import is_valid_pivot, select_pivot

PAYLOAD_NAN = 0xFFC00001


def bits(values: np.ndarray) -> np.ndarray:
    return values.view(f"u{values.dtype.itemsize}")


def float32_keys(n: int, seed: int, patterns=()) -> np.ndarray:
    """``n`` normal float32 keys with ``patterns`` bit patterns mixed in."""
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal(n).astype(np.float32)
    where = rng.choice(n, size=len(patterns), replace=False)
    bits(keys)[where] = patterns
    return keys


def assert_sorted_permutation(out: np.ndarray, keys: np.ndarray) -> None:
    assert out.dtype == keys.dtype and out.size == keys.size
    assert np.array_equal(out, np.sort(keys), equal_nan=True)
    assert np.array_equal(np.sort(bits(out)), np.sort(bits(keys)))


def assert_same_records(out, out_values, keys, values) -> None:
    expected = sorted(zip(bits(keys).tolist(), values.tolist()))
    assert sorted(zip(bits(out).tolist(), out_values.tolist())) == expected


#: 4,093 keys (not a multiple of 8 GPUs) whose maxima are three +inf
#: and a NaN: the old ``finfo.max`` pads sorted ahead of all four.
INF_NAN = (0x7F800000, 0x7F800000, 0x7F800000, 0x7FC00000)


class TestPadding:
    def test_p2p_keys_only(self):
        keys = float32_keys(4093, 1, INF_NAN)
        result = p2p_sort(Machine(dgx_a100()), keys)
        assert_sorted_permutation(result.output, keys)
        assert np.isinf(result.output[-4:-1]).all()

    def test_p2p_key_value(self):
        keys = float32_keys(4093, 2, INF_NAN)
        values = np.arange(keys.size, dtype=np.int64)
        result = p2p_sort(Machine(dgx_a100()), keys, values=values)
        assert_sorted_permutation(result.output, keys)
        assert_same_records(result.output, result.output_values, keys,
                            values)

    def test_supervised_p2p(self):
        keys = float32_keys(4093, 3, INF_NAN)
        result = SortSupervisor(Machine(dgx_a100())).sort(keys)
        assert_sorted_permutation(result.output, keys)

    def test_hier_shards(self):
        # Shards of 1,024 keys; the last one, 1,021 keys, is padded to a
        # multiple of its node's 8 GPUs and holds the maxima.
        keys = float32_keys(4093, 4)
        bits(keys)[-len(INF_NAN):] = INF_NAN
        result = hier_sort(Machine(make_cluster("dgx-a100", 4)), keys)
        assert_sorted_permutation(result.output, keys)

    @pytest.mark.parametrize("gpus", [2, 8])
    def test_pads_never_displace_distinct_nan_maxima(self, gpus):
        # The maxima tie with the pads but differ in bits: a pad that
        # overtook one would drop its payload from the output.
        nans = (0x7FC00000, PAYLOAD_NAN, 0x7FC00123, 0xFFC00000) * 8
        keys = float32_keys(4093, 9, nans)
        values = np.arange(keys.size, dtype=np.int64)
        ids = dgx_a100().preferred_gpu_set(gpus)
        plain = p2p_sort(Machine(dgx_a100()), keys, gpu_ids=ids)
        assert_sorted_permutation(plain.output, keys)
        records = p2p_sort(Machine(dgx_a100()), keys, gpu_ids=ids,
                           values=values)
        assert_same_records(records.output, records.output_values, keys,
                            values)
        supervised = SortSupervisor(Machine(dgx_a100())).sort(
            keys, gpu_ids=ids)
        assert_sorted_permutation(supervised.output, keys)

    def test_hier_empty_shard(self):
        # Ceil-sharding 5 keys over 4 nodes leaves the last node none.
        keys = np.array([5, 3, 9, 1, 7], dtype=np.int32)
        result = hier_sort(Machine(make_cluster("dgx-a100", 4)), keys)
        assert np.array_equal(result.output, np.sort(keys))


class TestSignBitNaN:
    @pytest.mark.parametrize("sort", [p2p_sort, het_sort, rp_sort])
    def test_sorts_without_crashing(self, sort):
        keys = float32_keys(4096, 5, (0xFFC00000,) * 5 + (0x80000000,))
        result = sort(Machine(dgx_a100()), keys)
        assert_sorted_permutation(result.output, keys)

    def test_pivot_orders_nan_last(self):
        nan = np.float32(np.nan)
        a = np.array([1.0, nan], np.float32)
        b = np.array([2.0, nan], np.float32)
        pivot = select_pivot(a, b)
        assert pivot == 1 and is_valid_pivot(a, b, pivot)

    def test_rp_all_nan(self):
        keys = np.array([PAYLOAD_NAN, 0x7FC00000, 0xFFC00000] * 7,
                        np.uint32).view(np.float32)
        result = rp_sort(Machine(dgx_a100()), keys)
        assert_sorted_permutation(result.output, keys)


class TestNaNPayloads:
    def test_helper_keeps_payload_bits(self):
        keys = float32_keys(1000, 6, (PAYLOAD_NAN, 0x80000000))
        out = sort_in_place(keys.copy())
        assert_sorted_permutation(out, keys)
        assert PAYLOAD_NAN in bits(out)
        runs = np.concatenate([np.sort(keys[:400], kind="stable"),
                               np.sort(keys[400:], kind="stable")])
        merged = merge_in_place(runs.copy(), 400)
        assert np.array_equal(bits(merged), bits(out))

    @pytest.mark.parametrize("with_values", [False, True])
    @pytest.mark.parametrize("merge", [False, True])
    def test_sort_into_writes_the_in_place_bytes(self, merge, with_values):
        keys = float32_keys(1000, 9, (PAYLOAD_NAN, 0x80000000, 0))
        if merge:
            keys[:400].sort(kind="stable")
            keys[400:].sort(kind="stable")
        values = np.arange(1000, dtype=np.int64) if with_values else None
        out = np.empty_like(keys)
        value_out = np.empty_like(values) if with_values else None
        work = sort_into(keys, out, values, value_out, merge=merge)
        expected = keys.copy()
        expected_values = None if values is None else values.copy()
        if merge:
            merge_in_place(expected, 400, expected_values)
        else:
            sort_in_place(expected, expected_values)
        before = keys.copy()
        work()
        assert bits(out).tolist() == bits(expected).tolist()
        assert bits(keys).tolist() == bits(before).tolist()
        if with_values:
            assert value_out.tolist() == expected_values.tolist()

    def test_helper_sorts_records_stably(self):
        keys = np.array([2, 1, 2, 1], np.int32)
        values = np.arange(4, dtype=np.int64)
        sort_in_place(keys, values)
        assert keys.tolist() == [1, 1, 2, 2]
        assert values.tolist() == [1, 3, 0, 2]

    def test_hier_sort(self):
        keys = float32_keys(4096, 7, (PAYLOAD_NAN,) * 3)
        result = hier_sort(Machine(make_cluster("dgx-a100", 4)), keys)
        assert_sorted_permutation(result.output, keys)
        assert (bits(result.output[-3:]) == PAYLOAD_NAN).all()

    def test_service_job(self):
        keys = float32_keys(1000, 8, (PAYLOAD_NAN,) * 2)
        machine = Machine(dgx_a100(), scale=1e5)
        service = SortService(machine)
        service.submit(JobSpec(job_id=0, tenant="t", arrival_s=0.0,
                               keys=keys.size, dtype="float32", gpus=4),
                       data=keys)
        machine.env.run()
        (job,) = service.results
        assert job.status == "completed"
        assert_sorted_permutation(job.sort.output, keys)
        assert (bits(job.sort.output[-2:]) == PAYLOAD_NAN).all()
