#!/usr/bin/env python
"""Database scenario: GPU-accelerated key-value sort powering a join.

The paper motivates sorting with its database applications — index
creation, duplicate detection and merge joins (Section 1).  This
example runs one end to end with *records*, not bare keys: each
relation's join key is sorted together with its row id (the library's
key-value mode), the sorted runs feed a merge join and duplicate
detection, and the sorted key column doubles as a range index.
"""

import numpy as np

from repro import Machine, dgx_a100, p2p_sort
from repro.bench.report import Table
from repro.data import generate

ROWS_R = 800_000
ROWS_S = 600_000
SCALE = 5_000            # each physical row stands in for 5000


def gpu_sorted_with_rowids(keys):
    """Sort (key, row id) records on 8 simulated GPUs."""
    machine = Machine(dgx_a100(), scale=SCALE)
    row_ids = np.arange(len(keys), dtype=np.int64)
    result = p2p_sort(machine, keys, values=row_ids)
    # Every payload still sits beside its own key.
    assert np.array_equal(keys[result.output_values], result.output)
    return result


def merge_join_count(r_keys, s_keys) -> int:
    """Join cardinality of R |><| S over sorted key columns."""
    left = np.searchsorted(s_keys, r_keys, side="left")
    right = np.searchsorted(s_keys, r_keys, side="right")
    return int((right - left).sum())


def main() -> None:
    # Skewed key domains so the relations overlap only partially.
    r = generate(ROWS_R, "uniform", np.int32, seed=10) % 1_000_000
    s = generate(ROWS_S, "normal", np.int32, seed=11) % 1_000_000

    r_result = gpu_sorted_with_rowids(r)
    s_result = gpu_sorted_with_rowids(s)

    r_sorted, s_sorted = r_result.output, s_result.output
    matches = merge_join_count(r_sorted, s_sorted)
    distinct_r = int(np.count_nonzero(np.diff(r_sorted)) + 1)

    table = Table(["step", "result"])
    table.add_row("sort R (key + row id) on 8 GPUs",
                  f"{r_result.logical_keys / 1e9:.1f}B rows in "
                  f"{r_result.duration:.3f} s")
    table.add_row("sort S (key + row id) on 8 GPUs",
                  f"{s_result.logical_keys / 1e9:.1f}B rows in "
                  f"{s_result.duration:.3f} s")
    table.add_row("merge join |R join S|", f"{matches:,} matches")
    table.add_row("duplicate detection on R",
                  f"{ROWS_R - distinct_r:,} duplicate keys")
    lo, hi = 250_000, 260_000
    span = np.searchsorted(r_sorted, [lo, hi])
    count = int(span[1] - span[0])
    sample_rows = r_result.output_values[span[0]:span[0] + 3]
    table.add_row(f"index range scan [{lo}, {hi})",
                  f"{count:,} rows; first row ids "
                  f"{list(map(int, sample_rows))}")
    table.print()

    print("Sorting is the expensive primitive; everything downstream "
          "is a linear scan over the sorted runs, and the row-id "
          "payloads point straight back into the base table.")


if __name__ == "__main__":
    main()
