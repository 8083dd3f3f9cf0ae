"""Tests of the HET sort extensions: GPU-merged chunk groups and
NUMA-aware input placement."""

import numpy as np
import pytest

from repro.errors import SortError
from repro.hw import dgx_a100, ibm_ac922
from repro.runtime import Machine
from repro.sort import HetConfig, P2PConfig, het_sort, p2p_sort


def out_of_core(scale=3_000_000):
    return Machine(ibm_ac922(), scale=scale)


class TestGpuMergedGroups:
    def test_out_of_core_correctness(self, rng):
        keys = rng.integers(0, 1 << 30, size=60_000).astype(np.int32)
        result = het_sort(out_of_core(), keys, gpu_ids=(0, 1, 2, 3),
                          config=HetConfig(gpu_merge_groups=True))
        assert result.chunk_groups > 1
        assert np.array_equal(result.output, np.sort(keys))

    def test_with_values(self, rng):
        keys = rng.integers(0, 1 << 30, size=50_000).astype(np.int32)
        values = np.arange(50_000, dtype=np.int64)
        result = het_sort(out_of_core(), keys, gpu_ids=(0, 1, 2, 3),
                          values=values,
                          config=HetConfig(gpu_merge_groups=True))
        assert np.array_equal(keys[result.output_values], result.output)

    def test_in_core_single_group(self, dgx, rng):
        keys = rng.integers(0, 5000, size=4096).astype(np.int32)
        result = het_sort(dgx, keys, gpu_ids=(0, 1, 2, 3),
                          config=HetConfig(gpu_merge_groups=True))
        assert np.array_equal(result.output, np.sort(keys))

    def test_ragged_last_group_falls_back(self, rng):
        # A size whose last group is not uniform still sorts correctly.
        keys = rng.integers(0, 1 << 30, size=50_001).astype(np.int32)
        result = het_sort(out_of_core(), keys, gpu_ids=(0, 1, 2, 3),
                          config=HetConfig(gpu_merge_groups=True))
        assert np.array_equal(result.output, np.sort(keys))

    def test_reduces_final_merge_load_on_ac922(self, rng):
        # Section 7: a P2P-based GPU merge for large data.  On the
        # AC922, whose CPU merge degrades sharply with many sublists,
        # merging each group on the GPUs should win clearly.
        keys = rng.integers(0, 1 << 30, size=100_000).astype(np.int32)
        scale = 32e9 / keys.size

        def run(gpu_merge: bool) -> float:
            machine = Machine(ibm_ac922(), scale=scale)
            return het_sort(machine, keys, gpu_ids=(0, 1),
                            config=HetConfig(
                                gpu_merge_groups=gpu_merge)).duration

        assert run(True) < 0.7 * run(False)

    def test_requires_power_of_two_gpus(self, dgx, rng):
        keys = rng.integers(0, 100, size=3000).astype(np.int32)
        with pytest.raises(SortError, match="power-of-two"):
            het_sort(dgx, keys, gpu_ids=(0, 2, 4),
                     config=HetConfig(gpu_merge_groups=True))

    def test_incompatible_with_3n(self, dgx):
        with pytest.raises(SortError, match="2n"):
            het_sort(dgx, np.arange(8, dtype=np.int32),
                     config=HetConfig(gpu_merge_groups=True,
                                      approach="3n"))

    def test_incompatible_with_eager_merge(self, dgx):
        with pytest.raises(SortError, match="mutually"):
            het_sort(dgx, np.arange(8, dtype=np.int32),
                     config=HetConfig(gpu_merge_groups=True,
                                      eager_merge=True))


class TestNumaPlacement:
    def test_functional_equivalence(self, rng):
        keys = rng.integers(0, 1 << 30, size=4096).astype(np.int32)
        base = p2p_sort(Machine(ibm_ac922(), scale=1), keys,
                        gpu_ids=(0, 1, 2, 3))
        local = p2p_sort(Machine(ibm_ac922(), scale=1), keys,
                         gpu_ids=(0, 1, 2, 3),
                         config=P2PConfig(input_placement="numa-local"))
        assert np.array_equal(base.output, local.output)

    def test_local_placement_speeds_up_remote_gpus(self, rng):
        keys = rng.integers(0, 1 << 30, size=100_000).astype(np.int32)
        scale = 2e9 / keys.size

        def run(**cfg) -> float:
            machine = Machine(ibm_ac922(), scale=scale)
            return p2p_sort(machine, keys, gpu_ids=(0, 1, 2, 3),
                            config=P2PConfig(**cfg)).duration

        node0 = run()
        local = run(input_placement="numa-local",
                    charge_redistribution=False)
        shuffled = run(input_placement="numa-local",
                       charge_redistribution=True)
        # Discussion/Section 7: remote GPUs are only infeasible when
        # the data sits on one node.  Local placement removes the X-Bus
        # from the copy phases; even paying the one-time shuffle wins.
        assert local < 0.7 * node0
        assert local < shuffled < node0

    def test_redistribution_phase_recorded(self, rng):
        keys = rng.integers(0, 1 << 30, size=50_000).astype(np.int32)
        machine = Machine(ibm_ac922(), scale=1000)
        result = p2p_sort(machine, keys, gpu_ids=(0, 1, 2, 3),
                          config=P2PConfig(input_placement="numa-local"))
        assert "Redistribute" in result.phase_durations

    def test_no_redistribution_for_local_gpus_only(self, rng):
        # GPUs 0 and 1 live on node 0 already: nothing to shuffle.
        keys = rng.integers(0, 1 << 30, size=50_000).astype(np.int32)
        machine = Machine(ibm_ac922(), scale=1000)
        result = p2p_sort(machine, keys, gpu_ids=(0, 1),
                          config=P2PConfig(input_placement="numa-local"))
        assert "Redistribute" not in result.phase_durations

    def test_placement_on_dgx_changes_little(self, rng):
        # The DGX's Infinity Fabric is wide enough that placement
        # barely matters for HtoD (Figure 4: remote ~ local).
        keys = rng.integers(0, 1 << 30, size=50_000).astype(np.int32)
        scale = 2e9 / keys.size

        def run(placement) -> float:
            machine = Machine(dgx_a100(), scale=scale)
            return p2p_sort(machine, keys,
                            config=P2PConfig(
                                input_placement=placement,
                                charge_redistribution=False)).duration

        assert run("numa-local") == pytest.approx(run("node0"), rel=0.25)

    def test_unknown_placement_rejected(self, ac922):
        with pytest.raises(SortError, match="input_placement"):
            p2p_sort(ac922, np.arange(8, dtype=np.int32), gpu_ids=(0, 1),
                     config=P2PConfig(input_placement="interleaved"))
