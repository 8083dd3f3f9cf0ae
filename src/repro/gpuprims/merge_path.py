"""Merge Path: balanced parallel merging of two sorted arrays.

Green, McColl & Bader's *GPU Merge Path* (ICS '12) observes that the
merge of sorted ``A`` and ``B`` corresponds to a monotone path through
the ``|A| x |B|`` grid, and that the path's intersections with its
cross-diagonals split the merge into equally sized, independent
segments — one per GPU thread block.  :func:`merge_partitions` computes
these intersections by binary search on the diagonals;
:func:`merge_sorted` then merges each segment sequentially, in linear
time.  That is the split Merge Path prescribes: binary search only at
the segment boundaries, and a plain two-finger merge inside each
segment.  Here the sequential merge (:func:`merge_runs_in_place`) is
NumPy's stable sort over the two runs laid back to back — timsort
(radix sort for keys of 16 bits or fewer) finds the two ascending runs
and merges them once, galloping, so a segment of ``n`` elements costs
O(n) rather than the O(n log n) of ranking every element by binary
search.  Stability keeps ties in favour of ``a``, the usual stable-merge
convention, so keys and payloads come out element-identical to a rank
merge.

This module provides the functional behaviour of both ``thrust::merge``
(used for the GPU-local merges of the P2P sort, Section 5.2) and MGPU's
merge sort (Table 2), which is :func:`merge_sort` — a bottom-up merge
sort built from merge-path merges.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SortError
from repro.runtime.buffer import default_pool


def _sorts_before(x, y) -> bool:
    """``x < y`` in NumPy's sort order, where NaN sorts after numbers."""
    return bool(x < y or (y != y and x == x))


def _diagonal_intersection(a: np.ndarray, b: np.ndarray, diag: int) -> int:
    """Number of elements taken from ``a`` on cross-diagonal ``diag``.

    Binary search along the diagonal for the point where the merge path
    crosses it: the largest ``i`` (elements of ``a`` consumed) such that
    ``a[:i]`` precedes ``b[diag - i:]`` in the merged order.  Keys
    compare in NumPy's sort order, so NaN tails split where the
    segment merges expect them.
    """
    lo = max(0, diag - b.size)
    hi = min(diag, a.size)
    while lo < hi:
        mid = (lo + hi) // 2
        # Path goes below-right of (mid, diag-mid) iff a[mid] <= b[diag-mid-1].
        if not _sorts_before(b[diag - mid - 1], a[mid]):
            lo = mid + 1
        else:
            hi = mid
    return lo


def merge_partitions(a: np.ndarray, b: np.ndarray,
                     segments: int) -> List[Tuple[int, int, int, int]]:
    """Split the merge of ``a`` and ``b`` into balanced segments.

    Returns ``segments`` tuples ``(a_lo, a_hi, b_lo, b_hi)`` whose
    merges concatenate to the full merge, each covering
    ``ceil((|a|+|b|)/segments)`` output elements (the last may be
    shorter).
    """
    if segments < 1:
        raise SortError(f"segments must be >= 1, got {segments}")
    total = a.size + b.size
    step = -(-total // segments) if total else 0
    bounds = [0]
    for seg in range(1, segments):
        bounds.append(min(seg * step, total))
    bounds.append(total)
    crossings = [_diagonal_intersection(a, b, diag) for diag in bounds]
    result = []
    for lo, hi, a_lo, a_hi in zip(bounds, bounds[1:], crossings,
                                  crossings[1:]):
        result.append((a_lo, a_hi, lo - a_lo, hi - a_hi))
    return result


def merge_runs_in_place(values: np.ndarray, split: int) -> np.ndarray:
    """Merge the sorted runs ``values[:split]`` and ``values[split:]``.

    One stable sort does the merge in place, in linear time: timsort
    (radix sort for keys of 16 bits or fewer) finds the two ascending
    runs and gallops through a single merge, with a buffer of at most
    the shorter run.  Stability keeps ties in favour of the first run.
    """
    if not 0 <= split <= values.size:
        raise SortError(
            f"split {split} out of range for {values.size} elements")
    values.sort(kind="stable")
    return values


def _check_out(out: Optional[np.ndarray], size: int,
               *inputs: np.ndarray) -> None:
    if out is None:
        return
    if out.size != size:
        raise SortError(
            f"merge output needs {size} elements, got {out.size}")
    for source in inputs:
        if out is source:
            raise SortError("merge cannot write over an input run")


def merge_sorted_with_values(a: np.ndarray, b: np.ndarray,
                             va: np.ndarray, vb: np.ndarray, *,
                             out_keys: Optional[np.ndarray] = None,
                             out_values: Optional[np.ndarray] = None
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Key-value merge: payloads travel with their keys.

    One stable argsort of the concatenated keys is the merge
    permutation (linear, as in :func:`merge_sorted`; ties go to ``a``),
    and both outputs are gathered through it.  ``out_keys`` /
    ``out_values`` are optional preallocated destinations (must not
    overlap the inputs).
    """
    if a.dtype != b.dtype:
        raise SortError(f"key dtype mismatch: {a.dtype} vs {b.dtype}")
    if va.dtype != vb.dtype:
        raise SortError(f"value dtype mismatch: {va.dtype} vs {vb.dtype}")
    if a.size != va.size or b.size != vb.size:
        raise SortError("keys and values must have equal lengths")
    _check_out(out_keys, a.size + b.size, a, b)
    _check_out(out_values, va.size + vb.size, va, vb)
    joined = np.concatenate((a, b))
    order = np.argsort(joined, kind="stable")
    keys = np.take(joined, order, out=out_keys)
    values = np.take(np.concatenate((va, vb)), order, out=out_values)
    return keys, values


def merge_sorted(a: np.ndarray, b: np.ndarray, segments: int = 8, *,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Merge two sorted arrays into one sorted array.

    The merge is partitioned with :func:`merge_partitions` and each
    segment is merged independently — the exact decomposition a GPU
    performs, so segment boundaries are covered by tests rather than
    hidden by a monolithic merge.  Pass ``out`` (not overlapping the
    inputs) to merge into a preallocated array; each segment then
    merges straight into its output slice with no intermediate.
    """
    if a.dtype != b.dtype:
        raise SortError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    _check_out(out, a.size + b.size, a, b)
    if a.size == 0 or b.size == 0:
        source = b if a.size == 0 else a
        if out is None:
            return source.copy()
        out[:] = source
        return out
    if out is None:
        out = np.empty(a.size + b.size, dtype=a.dtype)
    offset = 0
    for a_lo, a_hi, b_lo, b_hi in merge_partitions(a, b, segments):
        split = a_hi - a_lo
        segment = out[offset:offset + split + (b_hi - b_lo)]
        segment[:split] = a[a_lo:a_hi]
        segment[split:] = b[b_lo:b_hi]
        merge_runs_in_place(segment, split)
        offset += segment.size
    return out


def merge_sort(values: np.ndarray, base: int = 32, *,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Bottom-up merge sort built from merge-path merges (MGPU model).

    Runs of ``base`` elements are sorted in place, then width-doubling
    merge levels ping-pong between the result array and one workspace
    borrowed from the pool — two fixed buffers, no per-level
    allocation.  Pass ``out`` to receive the sorted keys in a
    preallocated array (sorting into the input array itself is
    allowed).  ``base`` must be at least 1.
    """
    if values.ndim != 1:
        raise SortError("merge sort expects a one-dimensional array")
    if base < 1:
        raise SortError(f"base run length must be >= 1, got {base}")
    n = values.size
    if n <= 1:
        if out is None:
            return values.copy()
        out[:] = values
        return out
    result = np.empty(n, dtype=values.dtype) if out is None else out
    if result is not values:
        result[:] = values
    for i in range(0, n, base):
        result[i:i + base].sort(kind="stable")
    with default_pool.borrow(n, values.dtype) as aux:
        src, dst = result, aux
        width = base
        while width < n:
            for lo in range(0, n, 2 * width):
                mid = min(lo + width, n)
                hi = min(lo + 2 * width, n)
                if mid < hi:
                    merge_sorted(src[lo:mid], src[mid:hi],
                                 out=dst[lo:hi])
                else:
                    # Odd tail run: carry it into the level's buffer.
                    dst[lo:hi] = src[lo:hi]
            src, dst = dst, src
            width *= 2
        if src is not result:
            # Odd level count: land the result in the owned buffer so
            # the return value never aliases the pooled workspace.
            result[:] = src
    return result
