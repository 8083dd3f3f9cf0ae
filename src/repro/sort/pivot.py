"""Pivot selection for the P2P merge (Section 5.2, Algorithm 1).

Given two sorted arrays ``A`` and ``B`` of equal length ``n``, a pivot
``p`` determines the block swap of the P2P merge: the last ``p`` keys
of ``A`` are exchanged with the first ``p`` keys of ``B``, after which
every key on the ``A`` side is <= every key on the ``B`` side.

``p`` is *valid* iff

* ``A[n-p-1] <= B[p]``  (unless ``p == n``) — the kept prefix of ``A``
  precedes the kept suffix of ``B``, and
* ``B[p-1] <= A[n-p]``  (unless ``p == 0``) — the moved prefix of ``B``
  precedes the moved suffix of ``A``.

Keys compare in NumPy's sort order (NaNs last), the order the kernels
sort in.  The set of valid pivots is a contiguous interval (the first
condition is monotone in ``p``, the second anti-monotone); with
duplicate keys it can contain many values.  :func:`select_pivot` returns the *leftmost*
valid pivot — the paper's optimization that minimizes the number of
keys transferred over the P2P interconnects, and skips the swap
entirely when the pivot is zero (already-ordered inputs).

:func:`select_pivot_paper` transcribes the paper's Algorithm 1
literally for comparison; the tests check both return valid pivots and
that :func:`select_pivot` is minimal.

Both functions only *read* ``O(log n)`` elements — on real hardware
these are P2P remote memory reads; the sort charges a per-probe
latency for them (Section 5.2 measures pivot selection at 0.03% of the
total execution time).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SortError


def _le(x, y) -> bool:
    """``x <= y`` in NumPy's sort order, where NaNs sort last."""
    return x <= y or y != y


def _check(a: Sequence, b: Sequence) -> int:
    n = len(a)
    if len(b) != n:
        raise SortError(
            f"pivot selection requires equally sized arrays, got "
            f"{n} and {len(b)}")
    if n == 0:
        raise SortError("pivot selection requires non-empty arrays")
    return n


def is_valid_pivot(a: Sequence, b: Sequence, p: int) -> bool:
    """Whether swapping the last ``p`` of ``a`` with the first ``p`` of
    ``b`` yields the two-sided partition described above."""
    n = _check(a, b)
    if not 0 <= p <= n:
        return False
    if p < n and not _le(a[n - p - 1], b[p]):
        return False
    if p > 0 and not _le(b[p - 1], a[n - p]):
        return False
    return True


def select_pivot(a: Sequence, b: Sequence) -> int:
    """The leftmost (minimal) valid pivot for sorted ``a`` and ``b``.

    Binary search over the monotone first validity condition; ``O(log
    n)`` element reads.
    """
    n = _check(a, b)
    # Find the minimal p with A[n-p-1] <= B[p] (true for p = n by
    # convention, monotone increasing in p).
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if mid == n or _le(a[n - mid - 1], b[mid]):
            hi = mid
        else:
            lo = mid + 1
    pivot = lo
    # The leftmost pivot satisfying condition 1 must satisfy condition 2
    # as well — a valid pivot always exists, and validity is an interval.
    if not is_valid_pivot(a, b, pivot):  # pragma: no cover - invariant
        raise SortError(
            f"internal error: leftmost pivot {pivot} is not valid")
    return pivot


def select_pivot_paper(a: Sequence, b: Sequence) -> int:
    """Literal transcription of the paper's Algorithm 1.

    Kept for comparison with :func:`select_pivot`; returns a valid
    pivot for the inputs exercised in our tests, though not always the
    leftmost one under heavy duplication.
    """
    n = _check(a, b)
    low, high = 0, n
    while low < high:
        mid = high - (high - low) // 2
        if _le(a[len(a) - mid], b[mid - 1]):
            high = mid - 1
        else:
            low = mid
    return low
