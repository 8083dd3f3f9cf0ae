"""Unit tests of GPU set selection and ordering (Section 5.4)."""

import pytest

from repro.errors import SortError
from repro.hw import delta_d22x, dgx_a100, ibm_ac922
from repro.sort.gpu_set import (
    best_gpu_order_for_p2p,
    best_gpu_set,
    p2p_order_cost,
    preferred_gpu_ids,
    rank_gpu_sets,
)


class TestPreferredIds:
    def test_paper_choices(self):
        assert preferred_gpu_ids(ibm_ac922(), 2) == (0, 1)
        assert preferred_gpu_ids(dgx_a100(), 2) == (0, 2)
        assert preferred_gpu_ids(dgx_a100(), 4) == (0, 2, 4, 6)


class TestOrderCost:
    def test_ac922_paper_order_beats_interleaved(self):
        spec = ibm_ac922()
        assert p2p_order_cost(spec, (0, 1, 2, 3)) < \
            p2p_order_cost(spec, (0, 2, 1, 3))

    def test_dgx_orders_tie(self):
        spec = dgx_a100()
        assert p2p_order_cost(spec, (0, 1, 2, 3)) == pytest.approx(
            p2p_order_cost(spec, (0, 3, 1, 2)))

    def test_rejects_bad_length(self):
        with pytest.raises(SortError):
            p2p_order_cost(ibm_ac922(), (0, 1, 2))


class TestBestOrder:
    def test_ac922_keeps_paper_order(self):
        order = best_gpu_order_for_p2p(ibm_ac922(), (0, 1, 2, 3))
        # Pairwise stages must couple the NVLink pairs {0,1} and {2,3}.
        pairs = {frozenset(order[0:2]), frozenset(order[2:4])}
        assert pairs == {frozenset({0, 1}), frozenset({2, 3})}

    def test_delta_finds_all_nvlink_order(self):
        # The DELTA's link set (0-1, 0-2, 2-3, 1-3) admits an order
        # whose global stage also runs over NVLink — the paper's
        # default (0, 1, 2, 3) sends it through the host instead.
        spec = delta_d22x()
        order = best_gpu_order_for_p2p(spec, (0, 1, 2, 3))
        assert p2p_order_cost(spec, order) < \
            p2p_order_cost(spec, (0, 1, 2, 3))
        half = len(order) // 2
        global_pairs = [(order[half - 1], order[half]),
                        (order[0], order[-1])]
        for a, b in global_pairs:
            assert spec.topology.has_direct_p2p(f"gpu{a}", f"gpu{b}")

    def test_single_gpu_passthrough(self):
        assert best_gpu_order_for_p2p(ibm_ac922(), (2,)) == (2,)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(SortError):
            best_gpu_order_for_p2p(ibm_ac922(), (0, 1, 2))


class TestRankSets:
    def test_dgx_prefers_distinct_switches(self):
        ranked = rank_gpu_sets(dgx_a100(), 2)
        best_set = ranked[0][0]
        # The best pair must not share a PCIe switch (pairs (2k, 2k+1)).
        assert best_set[0] // 2 != best_set[1] // 2

    def test_count_bounds(self):
        with pytest.raises(SortError):
            rank_gpu_sets(ibm_ac922(), 0)
        with pytest.raises(SortError):
            rank_gpu_sets(ibm_ac922(), 5)

    def test_best_set_orders_when_requested(self):
        chosen = best_gpu_set(delta_d22x(), 4, order_for_p2p=True)
        assert sorted(chosen) == [0, 1, 2, 3]


class TestEndToEndOrderEffect:
    def test_delta_optimized_order_sorts_faster(self, rng):
        import numpy as np

        from repro.runtime import Machine
        from repro.sort import p2p_sort

        data = rng.integers(0, 1 << 30, size=4096).astype(np.int32)
        spec = delta_d22x()
        optimized = best_gpu_order_for_p2p(spec, (0, 1, 2, 3))

        def run(order):
            machine = Machine(delta_d22x(), scale=2_000_000)
            return p2p_sort(machine, data, gpu_ids=order)

        default = run((0, 1, 2, 3))
        better = run(optimized)
        assert np.array_equal(better.output, default.output)
        assert better.duration < default.duration
