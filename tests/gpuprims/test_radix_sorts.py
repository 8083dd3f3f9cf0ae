"""Unit and property tests of the LSB and MSB radix sorts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import SortError
from tests.refprims.radix_lsb import argsort_radix_lsb, radix_sort_lsb
from tests.refprims.radix_msb import radix_sort_msb

SORTS = [radix_sort_lsb, radix_sort_msb]
DTYPES = [np.int32, np.uint32, np.int64, np.float32, np.float64]


@pytest.mark.parametrize("sort_fn", SORTS)
class TestRadixSorts:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_numpy(self, sort_fn, dtype, rng):
        if np.dtype(dtype).kind == "f":
            values = (rng.normal(size=3000) * 1e3).astype(dtype)
        else:
            info = np.iinfo(dtype)
            values = rng.integers(info.min, info.max, size=3000,
                                  dtype=dtype)
        assert np.array_equal(sort_fn(values), np.sort(values))

    def test_input_unmodified(self, sort_fn, rng):
        values = rng.integers(0, 100, size=200).astype(np.int32)
        snapshot = values.copy()
        sort_fn(values)
        assert np.array_equal(values, snapshot)

    def test_empty_and_single(self, sort_fn):
        assert sort_fn(np.empty(0, np.int32)).size == 0
        assert list(sort_fn(np.array([7], np.int32))) == [7]

    def test_all_equal(self, sort_fn):
        values = np.full(500, -3, np.int32)
        assert np.array_equal(sort_fn(values), values)

    def test_already_sorted_and_reversed(self, sort_fn):
        values = np.arange(-250, 250, dtype=np.int64)
        assert np.array_equal(sort_fn(values), values)
        assert np.array_equal(sort_fn(values[::-1].copy()), values)

    def test_extreme_values(self, sort_fn):
        info = np.iinfo(np.int32)
        values = np.array([info.max, info.min, 0, -1, 1, info.max,
                           info.min], np.int32)
        assert np.array_equal(sort_fn(values), np.sort(values))

    def test_rejects_bad_radix_bits(self, sort_fn):
        with pytest.raises(SortError):
            sort_fn(np.arange(4, dtype=np.int32), radix_bits=0)
        with pytest.raises(SortError):
            sort_fn(np.arange(4, dtype=np.int32), radix_bits=20)

    def test_rejects_2d(self, sort_fn):
        with pytest.raises(SortError):
            sort_fn(np.zeros((2, 2), np.int32))

    @pytest.mark.parametrize("radix_bits", [1, 3, 4, 8, 11, 16])
    def test_any_digit_width(self, sort_fn, radix_bits, rng):
        values = rng.integers(-1000, 1000, size=400).astype(np.int32)
        assert np.array_equal(sort_fn(values, radix_bits=radix_bits),
                              np.sort(values))

    @given(hnp.arrays(np.int32, st.integers(0, 300)))
    @settings(max_examples=40, deadline=None)
    def test_property_sorted_permutation(self, sort_fn, values):
        result = sort_fn(values)
        assert np.array_equal(np.sort(values), result)


class TestArgsort:
    def test_argsort_is_stable(self, rng):
        values = rng.integers(0, 5, size=400).astype(np.int32)
        order = argsort_radix_lsb(values)
        expected = np.argsort(values, kind="stable")
        assert np.array_equal(order, expected)

    def test_argsort_floats(self, rng):
        values = rng.normal(size=300).astype(np.float32)
        order = argsort_radix_lsb(values)
        assert np.array_equal(values[order], np.sort(values))

    def test_argsort_rejects_2d(self):
        with pytest.raises(SortError):
            argsort_radix_lsb(np.zeros((2, 2), np.int32))
