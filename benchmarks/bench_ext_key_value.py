"""Extension: key-value record sorting cost across the algorithms.

The paper sorts bare keys; database rows carry payloads.  This
benchmark quantifies what attaching a payload costs each algorithm —
every copy, swap, exchange and merge moves the extra bytes, so the
slowdown should track the record/key byte ratio wherever transfers
dominate.
"""

import numpy as np
from conftest import once

from repro.bench.report import Table
from repro.hw import dgx_a100
from repro.runtime import Machine
from repro.sort import het_sort, p2p_sort, rp_sort

KEYS = 100_000
SCALE = 2e9 / KEYS     # 2B records


def _run(sorter, values):
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 1 << 30, size=KEYS).astype(np.int32)
    machine = Machine(dgx_a100(), scale=SCALE)
    return sorter(machine, keys, values=values).duration


def test_ext_key_value_overhead(benchmark):
    def measure():
        values = np.arange(KEYS, dtype=np.int64)
        return {
            name: (_run(sorter, None), _run(sorter, values))
            for name, sorter in (("p2p", p2p_sort), ("het", het_sort),
                                 ("rp", rp_sort))
        }

    results = once(benchmark, measure)
    table = Table(["algorithm", "keys only [s]", "key+8B value [s]",
                   "slowdown"],
                  title="Extension: payload cost, 2B records on the "
                        "DGX A100 (8 GPUs)")
    for name, (plain, with_values) in results.items():
        table.add_row(name, f"{plain:.3f}", f"{with_values:.3f}",
                      f"{with_values / plain:.2f}x")
    table.print()
    for name, (plain, with_values) in results.items():
        # int32 + int64 records are 3x the bytes; transfer-bound
        # algorithms should land near 3x, never below 2x.
        assert 2.0 < with_values / plain < 3.5, name
    benchmark.extra_info["slowdowns"] = {
        name: with_values / plain
        for name, (plain, with_values) in results.items()}
