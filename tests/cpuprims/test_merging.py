"""Unit and property tests of the loser tree and multiway merges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SortError
from tests.refprims.losertree import LoserTree
from tests.refprims.multiway_merge import (
    multiway_merge,
    multiway_merge_losertree,
)


def sorted_runs(rng, k, max_len=300):
    return [np.sort(rng.integers(0, 1000,
                                 size=int(rng.integers(0, max_len)))
                    .astype(np.int32))
            for _ in range(k)]


class TestLoserTree:
    def test_winner_is_minimum(self):
        tree = LoserTree([5, 2, 9, 1])
        assert tree.winner == 3
        assert tree.winner_key == 1

    def test_replace_winner_replays_path(self):
        tree = LoserTree([5, 2, 9, 1])
        tree.replace_winner(10)   # run 3's next key
        assert tree.winner == 1
        assert tree.winner_key == 2

    def test_exhaustion(self):
        tree = LoserTree([3, 7])
        tree.exhaust_winner()
        assert tree.winner == 1
        tree.exhaust_winner()
        assert tree.exhausted

    def test_single_run(self):
        tree = LoserTree([42])
        assert tree.winner == 0
        tree.exhaust_winner()
        assert tree.exhausted

    def test_non_power_of_two_runs(self):
        tree = LoserTree([4, 1, 3, 5, 2])
        drained = []
        for _ in range(5):
            drained.append(tree.winner_key)
            tree.exhaust_winner()
        assert drained == [1, 2, 3, 4, 5]

    def test_ties_resolve_to_a_run(self):
        tree = LoserTree([1, 1, 1])
        assert tree.winner in (0, 1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LoserTree([])

    def test_full_drain_with_refills(self, rng):
        runs = [sorted(rng.integers(0, 100, size=20).tolist())
                for _ in range(6)]
        positions = [0] * 6
        tree = LoserTree([runs[i][0] for i in range(6)])
        out = []
        for _ in range(120):
            run = tree.winner
            out.append(runs[run][positions[run]])
            positions[run] += 1
            if positions[run] < len(runs[run]):
                tree.replace_winner(runs[run][positions[run]])
            else:
                tree.exhaust_winner()
        assert out == sorted(x for run in runs for x in run)
        assert tree.exhausted


@pytest.mark.parametrize("merge", [multiway_merge, multiway_merge_losertree])
class TestMultiwayMerge:
    def test_matches_numpy(self, merge, rng):
        runs = sorted_runs(rng, 7)
        assert np.array_equal(merge(runs),
                              np.sort(np.concatenate(runs)))

    def test_single_run(self, merge, rng):
        run = np.sort(rng.integers(0, 50, size=30).astype(np.int32))
        assert np.array_equal(merge([run]), run)

    def test_empty_runs_mixed_in(self, merge, rng):
        runs = [np.empty(0, np.int32), np.arange(5, dtype=np.int32),
                np.empty(0, np.int32)]
        assert np.array_equal(merge(runs), np.arange(5, dtype=np.int32))

    def test_no_runs_rejected(self, merge):
        with pytest.raises(SortError):
            merge([])

    def test_dtype_mismatch_rejected(self, merge):
        with pytest.raises(SortError):
            merge([np.zeros(2, np.int32), np.zeros(2, np.int64)])

    def test_many_runs(self, merge, rng):
        runs = sorted_runs(rng, 33, max_len=40)
        assert np.array_equal(merge(runs),
                              np.sort(np.concatenate(runs)))

    @given(st.lists(st.lists(st.integers(-50, 50), max_size=40),
                    min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_property_merge(self, merge, raw_runs):
        runs = [np.sort(np.array(r, dtype=np.int64)) for r in raw_runs]
        expected = np.sort(np.concatenate(runs)) if runs else None
        assert np.array_equal(merge(runs), expected)


class TestImplementationsAgree:
    def test_both_merges_identical_output(self, rng):
        runs = sorted_runs(rng, 9)
        assert np.array_equal(multiway_merge(runs),
                              multiway_merge_losertree(runs))
