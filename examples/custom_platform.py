#!/usr/bin/env python
"""Model a hypothetical next-generation platform and pick an algorithm.

The paper's discussion (Section 7) argues hardware needs faster
CPU-GPU transfers for multi-GPU sorting to scale.  This example builds
two fictional machines with the :class:`~repro.hw.SystemBuilder` —
one "budget" box with PCIe 3.0 everywhere, and one "dream" box pairing
NVSwitch-class P2P with NVLink-class host links — then predicts each
algorithm's performance on both, before any hardware exists.
"""

import numpy as np

from repro import HetConfig, Machine, SystemBuilder, het_sort, p2p_sort
from repro.bench.report import Table
from repro.data import generate
from repro.hw import LinkKind
from repro.units import gb, gib

PHYSICAL_KEYS = 500_000
SCALE = 8e9 / PHYSICAL_KEYS     # 8B keys = 32 GB


def budget_box():
    """Four V100s behind PCIe 3.0, no P2P links at all."""
    b = SystemBuilder("budget-box", "Budget box (PCIe 3.0 only)")
    b.add_numa_node(read_bw=gb(100), write_bw=gb(100), capacity=gib(384))
    for _ in range(4):
        b.add_gpu(numa=0, spec=SystemBuilder.v100_spec(),
                  link=LinkKind.PCIE3, bandwidth=gb(12.5),
                  duplex_factor=0.8)
    return b.build(cpu=SystemBuilder.generic_cpu(sort_rate=gb(2.0),
                                                 merge_rate=gb(45.0)))


def dream_box():
    """Four A100s: NVSwitch P2P plus NVLink-class CPU links."""
    b = SystemBuilder("dream-box", "Dream box (NVLink host + NVSwitch)")
    b.add_numa_node(read_bw=gb(300), write_bw=gb(250), capacity=gib(768),
                    duplex_factor=0.8)
    for _ in range(4):
        b.add_gpu(numa=0, spec=SystemBuilder.a100_spec(),
                  link=LinkKind.NVLINK3, bandwidth=gb(110),
                  duplex_factor=0.9, hbm_bw=gb(1240))
    b.add_nvswitch(gb(279.0), range(4))
    return b.build(cpu=SystemBuilder.generic_cpu(sort_rate=gb(7.0),
                                                 merge_rate=gb(50.0)))


def main() -> None:
    keys = generate(PHYSICAL_KEYS, "uniform", np.int32, seed=2)
    expected = np.sort(keys)
    table = Table(["platform", "P2P sort [s]", "HET sort [s]", "winner"])

    for build in (budget_box, dream_box):
        durations = {}
        for label, algorithm in (("p2p", p2p_sort), ("het", het_sort)):
            machine = Machine(build(), scale=SCALE)
            config = HetConfig() if label == "het" else None
            result = algorithm(machine, keys, gpu_ids=(0, 1, 2, 3),
                               config=config)
            assert np.array_equal(result.output, expected)
            durations[label] = result.duration
        winner = "P2P sort" if durations["p2p"] < durations["het"] \
            else "HET sort"
        table.add_row(build().display_name, f"{durations['p2p']:.2f}",
                      f"{durations['het']:.2f}", winner)

    table.print()
    print("Without P2P interconnects the GPU merge routes through the "
          "host and the CPU merge keeps up; with NVSwitch-class links "
          "the P2P merge pulls ahead - the Section 7 conclusion, "
          "predicted for hardware that does not exist.")


if __name__ == "__main__":
    main()
