#!/usr/bin/env python
"""Beyond the paper: every Section 7 proposal, measured side by side.

The paper closes with a list of directions — multi-hop P2P routing, a
partition-based sort for NVSwitch systems, a P2P GPU merge for large
data, and better CPU-GPU data placement.  This library implements all
of them; this example runs each head-to-head against the paper's
baseline configuration.
"""

import numpy as np

from repro import Machine, HetConfig, P2PConfig, system_by_name
from repro.bench.report import Table
from repro.data import generate
from repro.sort import het_sort, p2p_sort, rp_sort

PHYSICAL = 200_000


def machine(system: str, billions: float) -> Machine:
    return Machine(system_by_name(system), scale=billions * 1e9 / PHYSICAL)


def main() -> None:
    keys = generate(PHYSICAL, "uniform", np.int32, seed=0)
    table = Table(["idea (paper Section 7)", "baseline [s]",
                   "extension [s]", "gain"])

    # 1. Multi-hop P2P routing on the DELTA D22x.
    base = p2p_sort(machine("delta-d22x", 2), keys,
                    gpu_ids=(0, 1, 2, 3)).duration
    relayed = p2p_sort(machine("delta-d22x", 2), keys,
                       gpu_ids=(0, 1, 2, 3),
                       config=P2PConfig(multihop=True)).duration
    table.add_row("multi-hop P2P routing (DELTA, 4 GPUs)",
                  f"{base:.3f}", f"{relayed:.3f}",
                  f"{base / relayed:.2f}x")

    # 2. The single-exchange RP sort on the DGX A100.
    base = p2p_sort(machine("dgx-a100", 2), keys).duration
    partitioned = rp_sort(machine("dgx-a100", 2), keys).duration
    table.add_row("single-exchange RP sort (DGX, 8 GPUs)",
                  f"{base:.3f}", f"{partitioned:.3f}",
                  f"{base / partitioned:.2f}x")

    # 3. P2P GPU merge for large (out-of-core) data on the AC922.
    base = het_sort(machine("ibm-ac922", 32), keys,
                    gpu_ids=(0, 1)).duration
    merged = het_sort(machine("ibm-ac922", 32), keys, gpu_ids=(0, 1),
                      config=HetConfig(gpu_merge_groups=True)).duration
    table.add_row("GPU-merged chunk groups (AC922, 32B keys)",
                  f"{base:.2f}", f"{merged:.2f}",
                  f"{base / merged:.2f}x")

    # 4. NUMA-aware input placement on the AC922.
    base = p2p_sort(machine("ibm-ac922", 2), keys,
                    gpu_ids=(0, 1, 2, 3)).duration
    placed = p2p_sort(machine("ibm-ac922", 2), keys, gpu_ids=(0, 1, 2, 3),
                      config=P2PConfig(input_placement="numa-local",
                                       charge_redistribution=False)
                      ).duration
    table.add_row("NUMA-local input placement (AC922, 4 GPUs)",
                  f"{base:.3f}", f"{placed:.3f}",
                  f"{base / placed:.2f}x")

    table.print()
    print("Each extension attacks the bottleneck the paper diagnosed: "
          "host-staged P2P hops, repeated merge-stage traffic, the "
          "k-way CPU merge, and single-node data placement.")


if __name__ == "__main__":
    main()
