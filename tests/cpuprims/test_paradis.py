"""Unit and property tests of PARADIS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import SortError
from tests.refprims.paradis import paradis_sort


class TestParadis:
    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64,
                                       np.float32, np.float64])
    def test_matches_numpy(self, dtype, rng):
        if np.dtype(dtype).kind == "f":
            values = rng.normal(size=2000).astype(dtype)
        else:
            info = np.iinfo(dtype)
            values = rng.integers(info.min, info.max, size=2000,
                                  dtype=dtype)
        assert np.array_equal(paradis_sort(values), np.sort(values))

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7, 16])
    def test_worker_count_does_not_change_result(self, workers, rng):
        values = rng.integers(0, 50, size=1500).astype(np.int32)
        assert np.array_equal(paradis_sort(values, workers=workers),
                              np.sort(values))

    def test_heavy_duplicates_exercise_repair(self, rng):
        # Few distinct values force stripe overflows and repair rounds.
        values = rng.integers(0, 3, size=3000).astype(np.int32)
        assert np.array_equal(paradis_sort(values, workers=8),
                              np.sort(values))

    def test_adversarial_distributions(self):
        cases = [
            np.arange(1000, dtype=np.int32)[::-1].copy(),
            np.zeros(777, dtype=np.int64),
            np.tile(np.array([5, -5], np.int32), 400),
            np.repeat(np.arange(4, dtype=np.int32), 250),
        ]
        for values in cases:
            assert np.array_equal(paradis_sort(values), np.sort(values))

    def test_small_inputs(self):
        assert paradis_sort(np.empty(0, np.int32)).size == 0
        assert list(paradis_sort(np.array([2], np.int32))) == [2]

    def test_input_unmodified(self, rng):
        values = rng.integers(0, 100, size=300).astype(np.int32)
        snapshot = values.copy()
        paradis_sort(values)
        assert np.array_equal(values, snapshot)

    def test_parameter_validation(self):
        with pytest.raises(SortError):
            paradis_sort(np.arange(4, dtype=np.int32), radix_bits=0)
        with pytest.raises(SortError):
            paradis_sort(np.arange(4, dtype=np.int32), workers=0)
        with pytest.raises(SortError):
            paradis_sort(np.zeros((2, 2), np.int32))

    @pytest.mark.parametrize("radix_bits", [2, 4, 8, 11])
    def test_digit_width(self, radix_bits, rng):
        values = rng.integers(-10_000, 10_000, size=800).astype(np.int32)
        assert np.array_equal(
            paradis_sort(values, radix_bits=radix_bits), np.sort(values))

    @given(hnp.arrays(np.int32, st.integers(0, 400),
                      elements=st.integers(-100, 100)),
           st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_property_sorted(self, values, workers):
        assert np.array_equal(paradis_sort(values, workers=workers),
                              np.sort(values))
