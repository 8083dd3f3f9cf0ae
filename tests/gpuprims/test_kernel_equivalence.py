"""Vectorized kernels versus their retained element-wise references.

The tentpole invariant of the vectorized kernel layer: every fast path
produces output *element-identical* to the seed-tree reference it
replaced — the per-bucket counting scatter, the element-wise PARADIS
speculation/repair loop, and the loser-tree multiway merge.  Seeded
random arrays sweep every supported dtype (including ±0.0 for floats);
stable permutations must match exactly, not just sort correctly.
"""

import numpy as np
import pytest

from tests.refprims.common import (
    stable_counting_permutation,
    stable_counting_permutation_reference,
    to_radix_keys,
)
from tests.refprims.merge_path import merge_sort, merge_sorted
from tests.refprims.multiway_merge import (
    multiway_merge,
    multiway_merge_losertree,
    multiway_merge_with_values,
)
from tests.refprims.paradis import (
    counters,
    paradis_sort,
    paradis_sort_reference,
)
from tests.refprims.radix_lsb import argsort_radix_lsb, radix_sort_lsb
from tests.refprims.radix_msb import radix_sort_msb


ALL_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64,
              np.float32, np.float64]


def random_array(dtype, size, seed):
    """Seeded random keys of ``dtype``, duplicates likely, NaN-free."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        values = rng.normal(size=size).astype(dtype)
        # Sprinkle signed zeros and exact duplicates.
        values[rng.integers(0, size, size=max(1, size // 10))] = -0.0
        values[rng.integers(0, size, size=max(1, size // 10))] = 0.0
        return values
    info = np.iinfo(dtype)
    # A narrow range forces heavy duplication on the wide dtypes too.
    lo = max(info.min, -120)
    hi = min(info.max, 120)
    return rng.integers(lo, hi + 1, size=size, dtype=dtype)


class TestScatterEquivalence:
    @pytest.mark.parametrize("radix", [4, 16, 256, 1024])
    def test_permutation_identical_to_reference(self, radix, rng):
        digits = rng.integers(0, radix, size=1000).astype(np.int64)
        assert np.array_equal(
            stable_counting_permutation(digits, radix),
            stable_counting_permutation_reference(digits, radix))

    def test_all_buckets_occupied_and_missing(self, rng):
        # Degenerate digit histograms: single bucket, two buckets.
        for digits in (np.zeros(100, np.int64),
                       np.tile([0, 255], 50).astype(np.int64)):
            assert np.array_equal(
                stable_counting_permutation(digits, 256),
                stable_counting_permutation_reference(digits, 256))


class TestRadixSortEquivalence:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_lsb_sorts_every_dtype(self, dtype):
        values = random_array(dtype, 2000, seed=7)
        expected = np.sort(values, kind="stable")
        assert np.array_equal(radix_sort_lsb(values), expected)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_msb_sorts_every_dtype(self, dtype):
        values = random_array(dtype, 2000, seed=11)
        expected = np.sort(values, kind="stable")
        assert np.array_equal(radix_sort_msb(values), expected)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_merge_sort_every_dtype(self, dtype):
        values = random_array(dtype, 2000, seed=13)
        expected = np.sort(values, kind="stable")
        assert np.array_equal(merge_sort(values), expected)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_argsort_is_stable(self, dtype):
        values = random_array(dtype, 1500, seed=17)
        # Oracle in transformed-key space: the radix argsort totally
        # orders the key *bit patterns* (-0.0 before +0.0), which plain
        # np.argsort on floats cannot distinguish.
        keys, _ = to_radix_keys(values)
        assert np.array_equal(argsort_radix_lsb(values),
                              np.argsort(keys, kind="stable"))

    def test_out_param_and_in_place(self, rng):
        values = rng.integers(-1000, 1000, size=500).astype(np.int32)
        expected = np.sort(values)
        for sorter in (radix_sort_lsb, radix_sort_msb, merge_sort):
            out = np.empty_like(values)
            assert sorter(values, out=out) is out
            assert np.array_equal(out, expected)
            in_place = values.copy()
            assert sorter(in_place, out=in_place) is in_place
            assert np.array_equal(in_place, expected)

    def test_signed_zero_bit_patterns_preserved(self):
        values = np.array([1.0, -0.0, 0.0, -1.0, -0.0], dtype=np.float64)
        for sorter in (radix_sort_lsb, radix_sort_msb):
            result = sorter(values)
            # -0.0 sorts before +0.0 in the total order of the key
            # transform; the bit patterns must survive the round trip.
            assert np.array_equal(np.signbit(result),
                                  [True, True, True, False, False])


class TestParadisEquivalence:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_vectorized_matches_reference(self, dtype):
        values = random_array(dtype, 1200, seed=19)
        assert np.array_equal(paradis_sort(values),
                              paradis_sort_reference(values))

    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_reference_worker_counts_agree(self, workers, rng):
        values = rng.integers(0, 50, size=600).astype(np.int32)
        expected = np.sort(values)
        assert np.array_equal(
            paradis_sort_reference(values, workers=workers), expected)

    def test_vectorized_runs_one_round_per_level(self, rng):
        values = rng.integers(0, 2**31, size=5000).astype(np.int32)
        counters.reset()
        paradis_sort(values)
        assert counters.levels > 0
        assert counters.rounds == counters.levels

    def test_reference_striping_needs_repair_rounds(self, rng):
        # Duplicate-heavy data with many workers: stripes overflow, so
        # the reference needs more speculative rounds than levels —
        # the observable difference the striping semantics produce.
        values = rng.integers(0, 4, size=4000).astype(np.int32)
        counters.reset()
        paradis_sort_reference(values, workers=8)
        assert counters.rounds > counters.levels


class TestMergeEquivalence:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_multiway_matches_losertree(self, dtype, k):
        rng = np.random.default_rng(23 + k)
        runs = [np.sort(random_array(dtype, int(rng.integers(0, 300)),
                                     seed=100 + i)) for i in range(k)]
        assert np.array_equal(multiway_merge(runs),
                              multiway_merge_losertree(runs))

    def test_multiway_with_values_and_out(self, rng):
        runs = [np.sort(rng.integers(0, 100, size=50).astype(np.int32))
                for _ in range(3)]
        value_runs = [np.arange(i * 50, (i + 1) * 50, dtype=np.int64)
                      for i in range(3)]
        keys, values = multiway_merge_with_values(runs, value_runs)
        out = np.empty_like(keys)
        values_out = np.empty_like(values)
        keys2, values2 = multiway_merge_with_values(
            runs, value_runs, out=out, values_out=values_out)
        assert keys2 is out and values2 is values_out
        assert np.array_equal(keys, keys2)
        assert np.array_equal(values, values2)
        # Payloads still pair with their original keys.
        lookup = np.concatenate(runs)
        assert np.array_equal(lookup[values % 150], keys)

    def test_merge_sorted_out_matches_allocating_path(self, rng):
        a = np.sort(rng.integers(0, 1000, size=400).astype(np.int64))
        b = np.sort(rng.integers(0, 1000, size=273).astype(np.int64))
        out = np.empty(673, dtype=np.int64)
        assert merge_sorted(a, b, out=out) is out
        assert np.array_equal(out, merge_sorted(a, b))
