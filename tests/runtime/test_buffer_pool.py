"""Tests of the functional workspace pool (:mod:`repro.runtime.buffer`)."""

import numpy as np
import pytest

from repro.errors import PoolError, QuotaExceededError, RuntimeApiError
from repro.hw import dgx_a100
from repro.runtime import Machine
from repro.runtime.buffer import WorkspacePool, default_pool
from repro.sort import het_sort, p2p_sort


class TestWorkspacePool:
    def test_take_returns_requested_view(self):
        pool = WorkspacePool()
        view = pool.take(100, np.int32)
        assert view.size == 100
        assert view.dtype == np.int32
        assert pool.misses == 1

    def test_give_take_reuses_base(self):
        pool = WorkspacePool()
        view = pool.take(100, np.int32)
        base = view if view.base is None else view.base
        pool.give(view)
        again = pool.take(50, np.int32)
        assert (again if again.base is None else again.base) is base
        assert pool.hits == 1

    def test_smallest_sufficient_base_wins(self):
        pool = WorkspacePool()
        small = pool.take(10, np.int64)
        large = pool.take(1000, np.int64)
        pool.give(small)
        pool.give(large)
        view = pool.take(5, np.int64)
        assert (view.base if view.base is not None else view).size == 10

    def test_dtypes_are_separate(self):
        pool = WorkspacePool()
        pool.give(pool.take(100, np.int32))
        view = pool.take(100, np.float64)
        assert view.dtype == np.float64
        assert pool.misses == 2

    def test_borrow_context_manager(self):
        pool = WorkspacePool()
        with pool.borrow(64, np.uint32) as scratch:
            scratch[:] = 1
            base = scratch if scratch.base is None else scratch.base
        reused = pool.take(64, np.uint32)
        assert (reused if reused.base is None else reused.base) is base

    def test_borrow_returns_on_exception(self):
        pool = WorkspacePool()
        with pytest.raises(ValueError):
            with pool.borrow(8, np.int32):
                raise ValueError("boom")
        assert pool.take(8, np.int32) is not None
        assert pool.hits == 1

    def test_cache_is_capped(self):
        pool = WorkspacePool()
        views = [pool.take(i + 1, np.int8)
                 for i in range(pool.MAX_CACHED_PER_DTYPE + 3)]
        for view in views:
            pool.give(view)
        assert len(pool._free[np.dtype(np.int8).str]) == \
            pool.MAX_CACHED_PER_DTYPE
        # The largest bases survive the eviction.
        assert pool.cached_bytes == sum(
            range(4, pool.MAX_CACHED_PER_DTYPE + 4))

    def test_zero_length_take(self):
        pool = WorkspacePool()
        view = pool.take(0, np.int32)
        assert view.size == 0
        pool.give(view)

    def test_negative_take_rejected(self):
        pool = WorkspacePool()
        with pytest.raises(RuntimeApiError):
            pool.take(-1, np.int32)

    def test_multidimensional_give_rejected(self):
        pool = WorkspacePool()
        with pytest.raises(RuntimeApiError):
            pool.give(np.zeros((2, 2)))

    def test_clear_drops_everything(self):
        pool = WorkspacePool()
        pool.give(pool.take(100, np.int32))
        assert pool.cached_bytes > 0
        pool.clear()
        assert pool.cached_bytes == 0

    def test_double_release_raises_typed_error(self):
        pool = WorkspacePool()
        view = pool.take(32, np.int32)
        pool.give(view)
        with pytest.raises(PoolError, match="double release"):
            pool.give(view)
        # The free list is intact: the base is cached exactly once.
        assert len(pool._free[np.dtype(np.int32).str]) == 1

    def test_cross_pool_release_raises_typed_error(self):
        ours = WorkspacePool(name="ours")
        theirs = WorkspacePool(name="theirs")
        view = theirs.take(32, np.int32)
        with pytest.raises(PoolError, match="foreign release"):
            ours.give(view)
        # The rightful owner still accepts it.
        theirs.give(view)

    def test_never_borrowed_release_raises(self):
        pool = WorkspacePool()
        with pytest.raises(PoolError, match="foreign release"):
            pool.give(np.zeros(8, dtype=np.int32))

    def test_stats_snapshot(self):
        pool = WorkspacePool()
        held = pool.take(100, np.int32)
        pool.give(pool.take(50, np.float64))
        stats = pool.stats()
        assert stats.borrowed_bytes == {np.dtype(np.int32).str: 400}
        assert stats.free_bytes == {np.dtype(np.float64).str: 400}
        assert stats.total_borrowed == 400
        assert stats.total_free == 400
        assert stats.misses == 2
        assert stats.quota_bytes is None
        pool.give(held)
        assert pool.stats().total_borrowed == 0

    def test_quota_rejects_oversized_take(self):
        pool = WorkspacePool(quota_bytes=1000)
        held = pool.take(200, np.int32)  # 800 bytes on loan
        with pytest.raises(QuotaExceededError):
            pool.take(100, np.int32)  # would be 1200
        small = pool.take(25, np.int32)  # exactly 1000 — allowed
        pool.give(held)
        pool.give(small)
        # Returning loans frees quota for the next borrower.
        pool.give(pool.take(200, np.int32))

    def test_quota_counts_loans_not_cache(self):
        pool = WorkspacePool(quota_bytes=800)
        pool.give(pool.take(200, np.int32))
        # 800 bytes parked in the free list do not consume quota.
        view = pool.take(200, np.int32)
        assert view.size == 200

    def test_negative_quota_rejected(self):
        with pytest.raises(RuntimeApiError):
            WorkspacePool(quota_bytes=-1)

    def test_default_pool_is_shared(self):
        # P2P and HET sort borrow their host staging from the one
        # process-wide pool: what one sort gives back, the next takes.
        default_pool.clear()
        keys = np.arange(1001, 0, -1, dtype=np.int32)
        p2p_sort(Machine(dgx_a100(), scale=1), keys, gpu_ids=(0, 1))
        hits, misses = default_pool.hits, default_pool.misses
        assert misses > 0 and default_pool.cached_bytes > 0
        p2p_sort(Machine(dgx_a100(), scale=1), keys, gpu_ids=(0, 1))
        # The second sort reuses the first sort's padded staging.
        assert default_pool.misses == misses
        assert default_pool.hits > hits
        hits = default_pool.hits
        het_sort(Machine(dgx_a100(), scale=1), keys, gpu_ids=(0, 1))
        assert default_pool.hits > hits
