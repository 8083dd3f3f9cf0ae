"""Unit tests of the buffered SIMD radix sort and library stand-ins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cpuprims.stream import merge_saturation, stream_bandwidth
from repro.errors import SortError
from repro.hw import ibm_ac922
from tests.refprims.radix_simd import radix_sort_buffered_lsb
from tests.refprims.std_sorts import library_sort


class TestBufferedLsb:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float32])
    def test_matches_numpy(self, dtype, rng):
        if np.dtype(dtype).kind == "f":
            values = rng.normal(size=1000).astype(dtype)
        else:
            values = rng.integers(-10000, 10000, size=1000).astype(dtype)
        assert np.array_equal(radix_sort_buffered_lsb(values),
                              np.sort(values))

    def test_buffer_flush_boundaries(self, rng):
        # Sizes around multiples of the 16-element staging line.
        for n in (15, 16, 17, 31, 32, 33, 160):
            values = rng.integers(0, 256, size=n).astype(np.int32)
            assert np.array_equal(radix_sort_buffered_lsb(values),
                                  np.sort(values))

    def test_small_inputs(self):
        assert radix_sort_buffered_lsb(np.empty(0, np.int32)).size == 0
        assert list(radix_sort_buffered_lsb(np.array([1], np.int32))) == [1]

    def test_validation(self):
        with pytest.raises(SortError):
            radix_sort_buffered_lsb(np.zeros((2, 2), np.int32))
        with pytest.raises(SortError):
            radix_sort_buffered_lsb(np.arange(4, dtype=np.int32),
                                    radix_bits=0)

    @given(hnp.arrays(np.int32, st.integers(0, 200),
                      elements=st.integers(-1000, 1000)))
    @settings(max_examples=30, deadline=None)
    def test_property_sorted(self, values):
        assert np.array_equal(radix_sort_buffered_lsb(values),
                              np.sort(values))


class TestLibrarySorts:
    @pytest.mark.parametrize("flavour", ["gnu_parallel", "tbb", "std_par"])
    def test_flavours_sort(self, flavour, rng):
        values = rng.integers(0, 100, size=500).astype(np.int32)
        assert np.array_equal(library_sort(values, flavour),
                              np.sort(values))

    def test_unknown_flavour(self):
        with pytest.raises(SortError):
            library_sort(np.zeros(3, np.int32), "bogo")


class TestStreamModel:
    def test_stream_bandwidth_fraction(self):
        assert stream_bandwidth(100e9) == pytest.approx(78e9)

    def test_merge_saturation_counts_read_and_write(self):
        cpu = ibm_ac922().cpu
        expected = 2 * cpu.multiway_merge_rate / cpu.stream_bw
        assert merge_saturation(cpu) == pytest.approx(expected)
        # The paper's band (Section 5.3).
        assert 0.5 < merge_saturation(cpu) < 1.0
