#!/usr/bin/env python
"""Quickstart: sort 2B keys on a simulated DGX A100.

Demonstrates the core API: pick a platform from the catalog, wrap it in
a :class:`~repro.runtime.Machine`, generate a workload, and run both
multi-GPU sorting algorithms.  With ``scale=2000`` the one million
physical keys represent two billion logical keys — the size of the
paper's Figure 14 breakdown — while still really sorting data.
"""

import numpy as np

from repro import Machine, dgx_a100, het_sort, p2p_sort
from repro.analysis import breakdown_of
from repro.data import generate

PHYSICAL_KEYS = 1_000_000
SCALE = 2_000          # -> 2B logical keys (8 GB of int32)


def main() -> None:
    keys = generate(PHYSICAL_KEYS, "uniform", np.int32, seed=0)

    print(f"Sorting {PHYSICAL_KEYS * SCALE / 1e9:.0f}B int32 keys "
          f"on a simulated NVIDIA DGX A100\n")

    for name, algorithm, gpu_ids in [
        ("P2P sort", p2p_sort, (0, 1, 2, 3, 4, 5, 6, 7)),
        ("HET sort", het_sort, (0, 1, 2, 3, 4, 5, 6, 7)),
    ]:
        machine = Machine(dgx_a100(), scale=SCALE)
        result = algorithm(machine, keys, gpu_ids=gpu_ids)
        assert np.array_equal(result.output, np.sort(keys)), "sort is wrong!"

        print(f"{name} on {len(gpu_ids)} GPUs: {result.duration:.3f} s "
              f"({result.keys_per_second / 1e9:.1f}B keys/s)")
        for phase, seconds, fraction in breakdown_of(result).rows():
            print(f"    {phase:6s} {seconds:7.3f} s  ({fraction:5.1%})")
        print()

    print("Both outputs verified against numpy.sort.")


if __name__ == "__main__":
    main()
