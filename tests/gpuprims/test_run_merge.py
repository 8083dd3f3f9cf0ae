"""The linear run merges against the rank-merge oracle.

Every merge path — Merge Path segments, the key-value merge and the
device merge kernel (on machines built with and without the ignored
``fast_functional`` keyword) — must produce output
element-identical to the rank merge (ties to the first run), payload
order included.  Floats are compared bit for bit, so the placement of
``-0.0`` against ``+0.0`` and of distinct NaN payloads is checked too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SortError
from repro.gpuprims.merge_path import (
    merge_runs_in_place,
    merge_sort,
    merge_sorted,
    merge_sorted_with_values,
)
from repro.hw import dgx_a100
from repro.runtime import Machine
from repro.runtime.kernels import merge_two_on_device
from repro.runtime.memcpy import span
from tests.gpuprims.merge_oracle import rank_merge, rank_merge_with_values

DTYPES = [np.int8, np.int16, np.int32, np.int64, np.float32, np.float64]
CASES = ["random", "duplicates", "signed-zeros", "nan-tails", "empty-a",
         "empty-b", "in-order", "reverse-order"]


def bits(values: np.ndarray) -> np.ndarray:
    """The raw bit patterns of ``values``, for element identity."""
    return values.view(f"u{values.dtype.itemsize}")


def assert_identical(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype
    assert np.array_equal(bits(got), bits(expected))


def _nans(dtype: np.dtype, count: int, salt: int) -> np.ndarray:
    """``count`` quiet NaNs with distinct payload bits."""
    unsigned = np.dtype(f"u{dtype.itemsize}")
    quiet = np.array(np.nan, dtype=dtype).view(unsigned)
    return (quiet + np.arange(salt, salt + count, dtype=unsigned)).view(dtype)


def make_runs(dtype, case: str, seed: int, n_a: int = 300, n_b: int = 200):
    """Two sorted runs of ``dtype`` shaped by ``case``."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)

    def draw(n, lo=-100, hi=100):
        return rng.integers(lo, hi, size=n).astype(dtype)

    if case == "duplicates":
        a, b = draw(n_a, 0, 3), draw(n_b, 0, 3)
    elif case == "signed-zeros":
        a, b = draw(n_a, -2, 3), draw(n_b, -2, 3)
        if dtype.kind == "f":
            for run in (a, b):
                zeros = np.flatnonzero(run == 0)
                run[zeros[::2]] = -0.0
    elif case == "empty-a":
        a, b = draw(0), draw(n_b)
    elif case == "empty-b":
        a, b = draw(n_a), draw(0)
    elif case == "in-order":
        a, b = draw(n_a, -100, 0), draw(n_b, 0, 100)
        b[0] = a.max()  # touching ends: a[-1] == b[0]
    elif case == "reverse-order":
        a, b = draw(n_a, 0, 100), draw(n_b, -100, 0)
    else:
        a, b = draw(n_a), draw(n_b)
    a, b = np.sort(a, kind="stable"), np.sort(b, kind="stable")
    if case == "nan-tails" and dtype.kind == "f":
        a = np.concatenate([a, _nans(dtype, 7, 1)])
        b = np.concatenate([b, _nans(dtype, 5, 100)])
    return a, b


def payloads(a: np.ndarray, b: np.ndarray):
    """Payloads naming every element's input position."""
    return (np.arange(a.size, dtype=np.int64),
            np.arange(a.size, a.size + b.size, dtype=np.int64))


class TestMergeRunsInPlace:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_rank_merge(self, dtype, case):
        a, b = make_runs(dtype, case, seed=2)
        values = np.concatenate([a, b])
        assert merge_runs_in_place(values, a.size) is values
        assert_identical(values, rank_merge(a, b))

    @pytest.mark.parametrize("split", [-1, 11])
    def test_split_out_of_range(self, split):
        with pytest.raises(SortError, match="split"):
            merge_runs_in_place(np.arange(10, dtype=np.int32), split)


class TestMergeSortedIdentity:
    @pytest.mark.parametrize("segments", [1, 2, 3, 16, 100])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_rank_merge(self, dtype, case, segments):
        a, b = make_runs(dtype, case, seed=segments)
        assert_identical(merge_sorted(a, b, segments=segments),
                         rank_merge(a, b))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_preallocated_out(self, dtype):
        a, b = make_runs(dtype, "nan-tails", seed=5)
        out = np.empty(a.size + b.size, dtype=dtype)
        assert merge_sorted(a, b, out=out) is out
        assert_identical(out, rank_merge(a, b))

    @given(st.lists(st.integers(-5, 5), max_size=120),
           st.lists(st.integers(-5, 5), max_size=120),
           st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_property_signed_zeros(self, xs, ys, segments):
        # Small integer keys as floats, zeros alternating in sign.
        a = np.sort(np.array(xs, dtype=np.float64))
        b = np.sort(np.array(ys, dtype=np.float64))
        a[a == 0] *= np.resize([1.0, -1.0], int((a == 0).sum()))
        b[b == 0] *= np.resize([-1.0, 1.0], int((b == 0).sum()))
        assert_identical(merge_sorted(a, b, segments=segments),
                         rank_merge(a, b))

    def test_merge_sort_matches_stable_sort(self):
        # MGPU's merge sort inherits the run merge; stable merges of
        # stable base runs are a stable sort.
        values = make_runs(np.float32, "signed-zeros", seed=9,
                           n_a=700, n_b=0)[0]
        values = np.random.default_rng(9).permutation(values)
        for base in (1, 5, 32):
            assert_identical(merge_sort(values, base=base),
                             np.sort(values, kind="stable"))


class TestMergeWithValuesIdentity:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_rank_merge(self, dtype, case):
        a, b = make_runs(dtype, case, seed=3)
        va, vb = payloads(a, b)
        keys, values = merge_sorted_with_values(a, b, va, vb)
        ref_keys, ref_values = rank_merge_with_values(a, b, va, vb)
        assert_identical(keys, ref_keys)
        assert np.array_equal(values, ref_values)

    def test_heavy_duplicates_keep_payload_order(self):
        rng = np.random.default_rng(11)
        a = np.sort(rng.integers(0, 2, size=5000).astype(np.int32))
        b = np.sort(rng.integers(0, 2, size=4000).astype(np.int32))
        va, vb = payloads(a, b)
        out_keys = np.empty(a.size + b.size, np.int32)
        out_values = np.empty(a.size + b.size, np.int64)
        keys, values = merge_sorted_with_values(
            a, b, va, vb, out_keys=out_keys, out_values=out_values)
        assert keys is out_keys and values is out_values
        ref_keys, ref_values = rank_merge_with_values(a, b, va, vb)
        assert np.array_equal(keys, ref_keys)
        assert np.array_equal(values, ref_values)

    @given(st.lists(st.integers(0, 3), max_size=150),
           st.lists(st.integers(0, 3), max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_property_duplicates(self, xs, ys):
        a = np.sort(np.array(xs, dtype=np.int64))
        b = np.sort(np.array(ys, dtype=np.int64))
        va, vb = payloads(a, b)
        keys, values = merge_sorted_with_values(a, b, va, vb)
        ref_keys, ref_values = rank_merge_with_values(a, b, va, vb)
        assert np.array_equal(keys, ref_keys)
        assert np.array_equal(values, ref_values)

    @pytest.mark.parametrize("a, b", [
        # int32 [1, 3] with int64 [2**40] used to come back as [1, 3, 0]:
        # unsorted and truncated.
        (np.array([1, 3], np.int32), np.array([2**40], np.int64)),
        (np.array([1, 3], np.int64), np.array([2], np.int32)),
        (np.array([1, 3], np.float32), np.array([2], np.int32))])
    def test_key_dtype_mismatch_rejected(self, a, b):
        with pytest.raises(SortError, match="key dtype"):
            merge_sorted_with_values(a, b, np.zeros(2, np.int64),
                                     np.zeros(1, np.int64))

    def test_value_dtype_mismatch_rejected(self):
        with pytest.raises(SortError, match="value dtype"):
            merge_sorted_with_values(
                np.array([1, 3], np.int32), np.array([2], np.int32),
                np.zeros(2, np.int32), np.array([2**40], np.int64))


class TestMergeKernelIdentity:
    @staticmethod
    def _run(fast: bool, a: np.ndarray, b: np.ndarray, with_values: bool):
        machine = Machine(dgx_a100(), scale=1, fast_functional=fast)
        keys = machine.device(0).alloc(a.size + b.size, a.dtype)
        keys.data[:a.size] = a
        keys.data[a.size:] = b
        values = None
        if with_values:
            va, vb = payloads(a, b)
            values = machine.device(0).alloc(a.size + b.size, np.int64)
            values.data[:] = np.concatenate([va, vb])
        machine.run(merge_two_on_device(
            machine, span(keys), a.size,
            values=None if values is None else span(values)))
        return keys.data, None if values is None else values.data

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_keys_only(self, dtype, case, fast):
        a, b = make_runs(dtype, case, seed=7)
        keys, _ = self._run(fast, a, b, with_values=False)
        assert_identical(keys, rank_merge(a, b))

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_key_value(self, dtype, case, fast):
        a, b = make_runs(dtype, case, seed=8)
        keys, values = self._run(fast, a, b, with_values=True)
        ref_keys, ref_values = rank_merge_with_values(a, b,
                                                      *payloads(a, b))
        assert_identical(keys, ref_keys)
        assert np.array_equal(values, ref_values)
