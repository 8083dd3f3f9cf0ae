"""Unit tests of the P2P block swap helpers."""

import numpy as np
import pytest

from repro.errors import SortError
from repro.sort.swap import block_swap_sizes, swap_and_merge_pair
from repro.sort.p2p import Chunk


def _swap(machine, left, right, pivot):
    """The swap outside any task group: bare processes, no check."""
    return swap_and_merge_pair(machine, left, right, pivot,
                               spawn=machine.env.process,
                               check=lambda: None)


class TestBlockSwapSizes:
    def test_pivot_within_inner_pair(self):
        # 4 chunks of 100; pivot 60 stays inside the innermost pair.
        assert block_swap_sizes(60, chunk=100, pairs=2) == (60, 0)

    def test_pivot_spills_to_outer_pair(self):
        # Figure 9: pivot beyond one chunk swaps C1<->C2 entirely and
        # pivot blocks between C0 and C3.
        assert block_swap_sizes(130, chunk=100, pairs=2) == (100, 30)

    def test_full_swap(self):
        assert block_swap_sizes(200, chunk=100, pairs=2) == (100, 100)

    def test_zero_pivot(self):
        assert block_swap_sizes(0, chunk=100, pairs=2) == (0, 0)

    def test_eight_gpu_stage(self):
        assert block_swap_sizes(250, chunk=100, pairs=4) == \
            (100, 100, 50, 0)

    def test_sizes_sum_to_pivot(self):
        for pivot in range(0, 401, 7):
            assert sum(block_swap_sizes(pivot, 100, 4)) == pivot

    def test_out_of_range_rejected(self):
        with pytest.raises(SortError):
            block_swap_sizes(201, chunk=100, pairs=2)
        with pytest.raises(SortError):
            block_swap_sizes(-1, chunk=100, pairs=2)


class TestSwapAndMergePair:
    def make_chunks(self, machine, left_data, right_data, gpu_a=0, gpu_b=1):
        n = len(left_data)
        chunks = []
        for gpu_id, payload in ((gpu_a, left_data), (gpu_b, right_data)):
            device = machine.device(gpu_id)
            primary = device.alloc(n, np.int32)
            primary.data[:] = payload
            aux = device.alloc(n, np.int32)
            chunks.append(Chunk(device, primary, aux))
        return chunks

    def test_swap_produces_partition(self, ac922, rng):
        a = np.sort(rng.integers(0, 100, size=64).astype(np.int32))
        b = np.sort(rng.integers(0, 100, size=64).astype(np.int32))
        from repro.sort.pivot import select_pivot
        pivot = select_pivot(a, b)
        left, right = self.make_chunks(ac922, a, b)
        ac922.run(_swap(ac922, left, right, pivot))
        assert np.all(np.diff(left.primary.data) >= 0)
        assert np.all(np.diff(right.primary.data) >= 0)
        if pivot not in (0,):
            assert left.primary.data[-1] <= right.primary.data[0]
        merged = np.concatenate([left.primary.data, right.primary.data])
        assert np.array_equal(merged, np.sort(np.concatenate([a, b])))

    def test_zero_pivot_moves_nothing(self, ac922):
        a = np.arange(32, dtype=np.int32)
        b = np.arange(32, 64, dtype=np.int32)
        left, right = self.make_chunks(ac922, a, b)
        ac922.run(_swap(ac922, left, right, 0))
        assert ac922.now == 0.0
        assert np.array_equal(left.primary.data, a)

    def test_full_pivot_swaps_whole_chunks_without_merge(self, ac922):
        a = np.arange(32, 64, dtype=np.int32)
        b = np.arange(32, dtype=np.int32)
        left, right = self.make_chunks(ac922, a, b)

        def run():
            moved = yield from _swap(ac922, left, right, 32)
            return moved

        moved = ac922.run(run())
        assert np.array_equal(left.primary.data, b)
        assert np.array_equal(right.primary.data, a)
        assert moved == 2 * 32 * 4  # both directions, scale 1

    def test_mismatched_chunks_rejected(self, ac922):
        a = np.arange(32, dtype=np.int32)
        b = np.arange(16, dtype=np.int32)
        left = self.make_chunks(ac922, a, a)[0]
        right = self.make_chunks(ac922, b, b, gpu_a=2, gpu_b=3)[0]
        with pytest.raises(SortError):
            ac922.run(_swap(ac922, left, right, 1))

    def test_pivot_out_of_range_rejected(self, ac922):
        a = np.arange(8, dtype=np.int32)
        left, right = self.make_chunks(ac922, a, a)
        with pytest.raises(SortError):
            ac922.run(_swap(ac922, left, right, 9))
