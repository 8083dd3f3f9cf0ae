"""Unit and property tests of Merge Path partitioning and merging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SortError
from tests.refprims.merge_path import (
    merge_partitions,
    merge_sort,
    merge_sorted,
)


def sorted_array(rng, n, lo=0, hi=1000):
    return np.sort(rng.integers(lo, hi, size=n).astype(np.int32))


class TestMergePartitions:
    def test_segments_cover_both_inputs(self, rng):
        a, b = sorted_array(rng, 100), sorted_array(rng, 57)
        parts = merge_partitions(a, b, segments=8)
        assert len(parts) == 8
        assert parts[0][0] == 0 and parts[0][2] == 0
        assert parts[-1][1] == a.size and parts[-1][3] == b.size
        for (_, a_hi, _, b_hi), (a_lo, _, b_lo, _) in zip(parts, parts[1:]):
            assert a_hi == a_lo and b_hi == b_lo

    def test_segments_are_balanced(self, rng):
        a, b = sorted_array(rng, 128), sorted_array(rng, 128)
        parts = merge_partitions(a, b, segments=4)
        sizes = [(a_hi - a_lo) + (b_hi - b_lo)
                 for a_lo, a_hi, b_lo, b_hi in parts]
        assert sizes == [64, 64, 64, 64]

    def test_segment_merges_concatenate_to_full_merge(self, rng):
        a, b = sorted_array(rng, 90), sorted_array(rng, 110)
        parts = merge_partitions(a, b, segments=7)
        pieces = [np.sort(np.concatenate([a[a_lo:a_hi], b[b_lo:b_hi]]))
                  for a_lo, a_hi, b_lo, b_hi in parts]
        assert np.array_equal(np.concatenate(pieces),
                              np.sort(np.concatenate([a, b])))

    def test_invalid_segments(self, rng):
        with pytest.raises(SortError):
            merge_partitions(sorted_array(rng, 4), sorted_array(rng, 4), 0)


class TestMergeSorted:
    def test_matches_numpy(self, rng):
        a, b = sorted_array(rng, 500), sorted_array(rng, 300)
        assert np.array_equal(merge_sorted(a, b),
                              np.sort(np.concatenate([a, b])))

    def test_empty_inputs(self, rng):
        a = sorted_array(rng, 10)
        empty = np.empty(0, np.int32)
        assert np.array_equal(merge_sorted(a, empty), a)
        assert np.array_equal(merge_sorted(empty, a), a)

    def test_heavy_duplicates(self):
        a = np.zeros(100, np.int32)
        b = np.zeros(100, np.int32)
        assert np.array_equal(merge_sorted(a, b), np.zeros(200, np.int32))

    def test_disjoint_ranges(self):
        a = np.arange(100, dtype=np.int32)
        b = np.arange(100, 200, dtype=np.int32)
        assert np.array_equal(merge_sorted(b, a),
                              np.arange(200, dtype=np.int32))

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(SortError):
            merge_sorted(np.zeros(2, np.int32), np.zeros(2, np.int64))

    @pytest.mark.parametrize("segments", [1, 2, 3, 16, 100])
    def test_segment_count_does_not_change_result(self, rng, segments):
        a, b = sorted_array(rng, 77), sorted_array(rng, 34)
        assert np.array_equal(merge_sorted(a, b, segments=segments),
                              np.sort(np.concatenate([a, b])))

    @given(st.lists(st.integers(-1000, 1000), max_size=150),
           st.lists(st.integers(-1000, 1000), max_size=150))
    @settings(max_examples=50, deadline=None)
    def test_property_merge(self, xs, ys):
        a = np.sort(np.array(xs, dtype=np.int64))
        b = np.sort(np.array(ys, dtype=np.int64))
        assert np.array_equal(merge_sorted(a, b),
                              np.sort(np.concatenate([a, b])))


class TestMergeSort:
    def test_matches_numpy(self, rng):
        values = rng.integers(-500, 500, size=2000).astype(np.int32)
        assert np.array_equal(merge_sort(values), np.sort(values))

    def test_small_inputs(self):
        assert merge_sort(np.empty(0, np.int32)).size == 0
        assert list(merge_sort(np.array([3, 1], np.int32))) == [1, 3]

    def test_base_run_length(self, rng):
        values = rng.integers(0, 100, size=333).astype(np.int32)
        for base in (1, 2, 7, 64):
            assert np.array_equal(merge_sort(values, base=base),
                                  np.sort(values))

    def test_rejects_2d(self):
        with pytest.raises(SortError):
            merge_sort(np.zeros((3, 3), np.int32))

    @pytest.mark.parametrize("base", [0, -1])
    def test_rejects_base_below_one(self, base):
        # base=-1 used to loop forever; base=0 raised a bare ValueError.
        with pytest.raises(SortError, match="base"):
            merge_sort(np.arange(10, dtype=np.int32), base=base)
