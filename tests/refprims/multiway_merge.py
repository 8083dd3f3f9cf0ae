"""K-way merging of sorted runs (gnu_parallel::multiway_merge model).

Two implementations of the same contract:

* :func:`multiway_merge_losertree` — the reference: a loser tree over
  the run heads, ``log2(k)`` comparisons per output element, exactly
  the algorithm gnu_parallel uses (Section 5.3).  Element-at-a-time, so
  it is the one to read and to property-test.
* :func:`multiway_merge` — a vectorized binary merge tree delivering the
  same output fast enough for large functional runs.  The runs are laid
  out contiguously in a workspace borrowed from the pool and the tree's
  levels ping-pong between two such workspaces — two fixed buffers for
  the whole merge, no per-level concatenation.  gnu_parallel's parallel
  splitting is orthogonal to the merge order, so both produce the
  identical stable result.

Both work out-of-place: the paper favours out-of-place merging because
in-place approaches have worse complexity and perform poorly in
practice (Section 5.3).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from tests.refprims.losertree import LoserTree
from repro.errors import SortError
from tests.refprims.merge_path import merge_sorted, merge_sorted_with_values
from repro.runtime.buffer import default_pool


def _check_runs(runs: Sequence[np.ndarray]) -> None:
    if not runs:
        raise SortError("multiway merge needs at least one run")
    dtype = runs[0].dtype
    for run in runs:
        if run.ndim != 1:
            raise SortError("runs must be one-dimensional")
        if run.dtype != dtype:
            raise SortError(f"dtype mismatch: {run.dtype} vs {dtype}")


def _check_out(out: Optional[np.ndarray], total: int, label: str) -> None:
    if out is not None and out.size != total:
        raise SortError(
            f"{label} needs {total} elements, got {out.size}")


def multiway_merge_losertree(runs: Sequence[np.ndarray]) -> np.ndarray:
    """Merge sorted runs with a loser tree (reference implementation)."""
    _check_runs(runs)
    total = sum(run.size for run in runs)
    out = np.empty(total, dtype=runs[0].dtype)
    positions = [0] * len(runs)

    def head(run_index: int):
        run = runs[run_index]
        pos = positions[run_index]
        return run[pos] if pos < run.size else LoserTree._SENTINEL

    tree = LoserTree([head(i) for i in range(len(runs))])
    for out_pos in range(total):
        run_index = tree.winner
        out[out_pos] = runs[run_index][positions[run_index]]
        positions[run_index] += 1
        tree.replace_winner(head(run_index))
    return out


def multiway_merge(runs: Sequence[np.ndarray], *,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Merge sorted runs via a binary merge tree (vectorized fast path).

    Pass ``out`` (``sum(len(run))`` elements, not overlapping the runs)
    to receive the merged output in a preallocated array.
    """
    _check_runs(runs)
    total = sum(run.size for run in runs)
    _check_out(out, total, "multiway merge output")
    if len(runs) == 1:
        if out is None:
            return np.asarray(runs[0]).copy()
        out[:] = runs[0]
        return out
    dtype = runs[0].dtype
    with default_pool.borrow(total, dtype) as ping, \
            default_pool.borrow(total, dtype) as pong:
        sizes: List[int] = []
        offset = 0
        for run in runs:
            ping[offset:offset + run.size] = run
            sizes.append(run.size)
            offset += run.size
        src, dst = ping, pong
        while len(sizes) > 1:
            merged_sizes: List[int] = []
            offset = 0
            for i in range(0, len(sizes) - 1, 2):
                n1, n2 = sizes[i], sizes[i + 1]
                merge_sorted(src[offset:offset + n1],
                             src[offset + n1:offset + n1 + n2],
                             out=dst[offset:offset + n1 + n2])
                merged_sizes.append(n1 + n2)
                offset += n1 + n2
            if len(sizes) % 2:
                # Odd run out: carry it into the level's buffer so
                # every level lives in exactly one workspace.
                tail = sizes[-1]
                dst[offset:offset + tail] = src[offset:offset + tail]
                merged_sizes.append(tail)
            sizes = merged_sizes
            src, dst = dst, src
        if out is None:
            return src.copy()
        out[:] = src
        return out


def multiway_merge_with_values(runs: Sequence[np.ndarray],
                               value_runs: Sequence[np.ndarray], *,
                               out: Optional[np.ndarray] = None,
                               values_out: Optional[np.ndarray] = None
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """Key-value k-way merge: payloads travel with their keys.

    ``out`` / ``values_out`` are optional preallocated destinations for
    the merged keys and payloads.
    """
    _check_runs(runs)
    if len(value_runs) != len(runs):
        raise SortError("one value run per key run is required")
    for keys, values in zip(runs, value_runs):
        if len(keys) != len(values):
            raise SortError("keys and values must have equal lengths")
    total = sum(run.size for run in runs)
    if (out is None) != (values_out is None):
        raise SortError(
            "provide both out and values_out, or neither")
    _check_out(out, total, "multiway merge key output")
    _check_out(values_out, total, "multiway merge value output")
    if len(runs) == 1:
        keys = np.asarray(runs[0])
        values = np.asarray(value_runs[0])
        if out is None:
            return keys.copy(), values.copy()
        out[:] = keys
        values_out[:] = values
        return out, values_out
    key_dtype = runs[0].dtype
    value_dtype = np.asarray(value_runs[0]).dtype
    with default_pool.borrow(total, key_dtype) as key_ping, \
            default_pool.borrow(total, key_dtype) as key_pong, \
            default_pool.borrow(total, value_dtype) as val_ping, \
            default_pool.borrow(total, value_dtype) as val_pong:
        sizes: List[int] = []
        offset = 0
        for keys, values in zip(runs, value_runs):
            key_ping[offset:offset + keys.size] = keys
            val_ping[offset:offset + keys.size] = values
            sizes.append(keys.size)
            offset += keys.size
        src_k, dst_k = key_ping, key_pong
        src_v, dst_v = val_ping, val_pong
        while len(sizes) > 1:
            merged_sizes: List[int] = []
            offset = 0
            for i in range(0, len(sizes) - 1, 2):
                n1, n2 = sizes[i], sizes[i + 1]
                lo, mid, hi = offset, offset + n1, offset + n1 + n2
                merge_sorted_with_values(
                    src_k[lo:mid], src_k[mid:hi],
                    src_v[lo:mid], src_v[mid:hi],
                    out_keys=dst_k[lo:hi], out_values=dst_v[lo:hi])
                merged_sizes.append(n1 + n2)
                offset = hi
            if len(sizes) % 2:
                tail = sizes[-1]
                dst_k[offset:offset + tail] = src_k[offset:offset + tail]
                dst_v[offset:offset + tail] = src_v[offset:offset + tail]
                merged_sizes.append(tail)
            sizes = merged_sizes
            src_k, dst_k = dst_k, src_k
            src_v, dst_v = dst_v, src_v
        if out is None:
            return src_k.copy(), src_v.copy()
        out[:] = src_k
        values_out[:] = src_v
        return out, values_out
