"""Unit and property tests of the radix key transforms and scatter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import SortError
from tests.refprims.common import (
    binary_insertion_sort,
    counting_sort_pass,
    from_radix_keys,
    small_sort,
    stable_counting_permutation,
    stable_counting_permutation_reference,
    to_radix_keys,
)

NUMERIC_DTYPES = [np.int32, np.uint32, np.int64, np.uint64,
                  np.float32, np.float64]


def arrays_of(dtype, max_size=200):
    if np.dtype(dtype).kind == "f":
        elements = st.floats(allow_nan=False, width=np.dtype(dtype).itemsize * 8)
        return hnp.arrays(dtype, st.integers(0, max_size), elements=elements)
    return hnp.arrays(dtype, st.integers(0, max_size))


class TestKeyTransforms:
    @pytest.mark.parametrize("dtype", NUMERIC_DTYPES)
    def test_roundtrip(self, dtype, rng):
        if np.dtype(dtype).kind == "f":
            values = rng.normal(size=500).astype(dtype)
        else:
            info = np.iinfo(dtype)
            values = rng.integers(info.min, info.max, size=500, dtype=dtype)
        keys, original = to_radix_keys(values)
        assert np.array_equal(from_radix_keys(keys, original), values)

    @pytest.mark.parametrize("dtype", NUMERIC_DTYPES)
    def test_order_preserving(self, dtype, rng):
        if np.dtype(dtype).kind == "f":
            values = rng.normal(size=500).astype(dtype)
        else:
            info = np.iinfo(dtype)
            values = rng.integers(info.min, info.max, size=500, dtype=dtype)
        keys, _ = to_radix_keys(values)
        order_values = np.argsort(values, kind="stable")
        order_keys = np.argsort(keys, kind="stable")
        assert np.array_equal(values[order_values], values[order_keys])

    def test_negative_zero_and_infinities(self):
        values = np.array([np.inf, -np.inf, 0.0, -0.0, 1.5, -1.5],
                          dtype=np.float64)
        keys, dtype = to_radix_keys(values)
        restored = from_radix_keys(np.sort(keys), dtype)
        assert np.array_equal(restored, np.sort(values))

    def test_non_numeric_rejected(self):
        with pytest.raises(SortError):
            to_radix_keys(np.array(["a", "b"]))

    @given(arrays_of(np.int64))
    @settings(max_examples=50, deadline=None)
    def test_transform_is_monotone_bijection(self, values):
        keys, dtype = to_radix_keys(values)
        assert np.array_equal(from_radix_keys(keys, dtype), values)
        if values.size >= 2:
            comparison = values[:-1] <= values[1:]
            assert np.array_equal(comparison, keys[:-1] <= keys[1:])


class TestCountingScatter:
    def test_permutation_is_stable(self):
        digits = np.array([2, 0, 2, 1, 0, 2], dtype=np.int64)
        order = stable_counting_permutation(digits, radix=4)
        # Sources of equal digits keep their relative order.
        assert list(order) == [1, 4, 3, 0, 2, 5]

    def test_empty(self):
        assert stable_counting_permutation(
            np.empty(0, np.int64), 4).size == 0

    def test_counting_sort_pass_with_payload(self, rng):
        keys = rng.integers(0, 1 << 16, size=300).astype(np.uint32)
        payload = np.arange(300, dtype=np.int64)
        out_keys, out_payload = counting_sort_pass(keys, shift=0,
                                                   radix_bits=8,
                                                   payload=payload)
        digits = out_keys & 0xFF
        assert np.all(np.diff(digits.astype(np.int64)) >= 0)
        assert np.array_equal(keys[out_payload], out_keys)

    @given(hnp.arrays(np.int64, st.integers(0, 150),
                      elements=st.integers(0, 15)))
    @settings(max_examples=50, deadline=None)
    def test_scatter_is_a_permutation(self, digits):
        order = stable_counting_permutation(digits, radix=16)
        assert sorted(order) == list(range(digits.size))
        assert np.all(np.diff(digits[order]) >= 0)

    def test_digit_out_of_range_raises(self):
        for bad in ([4], [-1], [0, 2, 4], [0, -3, 1]):
            digits = np.array(bad, dtype=np.int64)
            with pytest.raises(SortError):
                stable_counting_permutation(digits, radix=4)
            with pytest.raises(SortError):
                stable_counting_permutation_reference(digits, radix=4)

    def test_boundary_digit_accepted(self):
        digits = np.array([0, 3, 1, 3], dtype=np.int64)
        order = stable_counting_permutation(digits, radix=4)
        assert np.all(np.diff(digits[order]) >= 0)

    def test_in_place_scatter_rejected(self):
        keys = np.arange(8, dtype=np.uint32)
        with pytest.raises(SortError):
            counting_sort_pass(keys, shift=0, radix_bits=8, out=keys)
        payload = np.arange(8, dtype=np.int64)
        with pytest.raises(SortError):
            counting_sort_pass(keys, shift=0, radix_bits=8,
                               payload=payload, payload_out=payload)

    def test_preallocated_out_is_used(self, rng):
        keys = rng.integers(0, 1 << 16, size=300).astype(np.uint32)
        out = np.empty_like(keys)
        payload = np.arange(300, dtype=np.int64)
        payload_out = np.empty_like(payload)
        result, result_payload = counting_sort_pass(
            keys, shift=0, radix_bits=8, payload=payload, out=out,
            payload_out=payload_out)
        assert result is out
        assert result_payload is payload_out
        assert np.array_equal(keys[result_payload], result)


class TestInsertionSort:
    def test_sorts_in_place(self, rng):
        keys = rng.integers(0, 100, size=60).astype(np.uint32)
        expected = np.sort(keys)
        binary_insertion_sort(keys)
        assert np.array_equal(keys, expected)

    def test_empty_and_single(self):
        for n in (0, 1):
            keys = np.arange(n, dtype=np.uint32)
            binary_insertion_sort(keys)
            assert keys.size == n

    def test_small_sort_matches_insertion_sort(self, rng):
        for size in (0, 1, 2, 17, 64):
            keys = rng.integers(0, 50, size=size).astype(np.uint32)
            reference = keys.copy()
            binary_insertion_sort(reference)
            small_sort(keys)
            assert np.array_equal(keys, reference)
