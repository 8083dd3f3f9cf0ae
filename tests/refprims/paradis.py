"""PARADIS: parallel in-place radix sort (Cho et al., VLDB 2015).

PARADIS is the paper's CPU baseline (Section 6).  It is an MSD radix
sort that partitions in place through two alternating phases per digit
level:

* **Speculative permutation** — the bucket destination regions are
  striped across ``p`` workers; each worker independently swaps
  elements from its stripes toward the stripe heads of their
  destination buckets.  Because a worker only writes within its own
  stripes, the phase is race-free, but a stripe may fill up before all
  of a worker's elements find a home — those stay misplaced.
* **Repair** — per bucket, the still-unresolved region is compacted:
  elements already carrying the bucket's digit move to the front, the
  active window shrinks to the misplaced remainder, and the next
  speculative round runs on the shrunken windows.

The two phases iterate until every element sits in its bucket; buckets
then recurse on the next digit.

Two functionally identical paths implement this contract:

* the **vectorized** default — each level's bucket windows are resolved
  in a single NumPy partition round (one stable counting scatter over
  the level, gathered through a pooled scratch buffer).  This is the
  one-worker speculative round of the original, whose stripes cover the
  whole windows and therefore always place every element: one round per
  level, no repair residue.
* the **reference** path (``paradis_sort_reference`` /
  ``vectorized=False``) — the element-at-a-time speculation/repair
  loop, faithful to the striping across ``workers`` and convergent over
  multiple rounds.  It is the property-test oracle.

Both paths report their work through :data:`counters` (levels entered,
speculative rounds run), which is how the tests observe that striping
with many workers needs repair rounds while the vectorized round does
not.  The simulator charges time from the calibrated PARADIS rate, not
from host wall-clock, so the paths are interchangeable timing-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SortError
from tests.refprims.common import (
    SMALL_SORT_THRESHOLD,
    _digit_dtype,
    _stable_digit_order,
    from_radix_keys,
    small_sort,
    to_radix_keys,
)
from repro.runtime.buffer import default_pool

#: Buckets at or below this size are finished with the local sort.
_LOCAL_SORT_THRESHOLD = SMALL_SORT_THRESHOLD

#: Safety bound on permute/repair rounds per level; PARADIS converges in
#: a handful of rounds, so hitting this indicates a bug.
_MAX_ROUNDS = 64


@dataclass
class ParadisCounters:
    """Observable work counters of the most recent sorts.

    ``levels`` counts digit levels partitioned (buckets above the local
    sort threshold); ``rounds`` counts speculative-permutation rounds.
    The vectorized path runs exactly one round per level; the reference
    path with multiple workers may need several on duplicate-heavy
    data, which keeps the striping semantics observable.
    """

    levels: int = 0
    rounds: int = 0

    def reset(self) -> None:
        """Zero the counters (call before a sort you want to measure)."""
        self.levels = 0
        self.rounds = 0


#: Module-wide counters; reset explicitly when measuring a single sort.
counters = ParadisCounters()


def _digits_of(keys: np.ndarray, shift: int, mask: int) -> np.ndarray:
    return ((keys >> keys.dtype.type(shift))
            & keys.dtype.type(mask)).astype(np.int64)


def _speculative_permute(keys: np.ndarray, heads: np.ndarray,
                         tails: np.ndarray, shift: int, mask: int,
                         workers: int) -> None:
    """One parallel speculative permutation round, executed per worker.

    ``heads``/``tails`` bound each bucket's *active* (unresolved)
    window.  Each worker receives one contiguous stripe of every active
    window and runs the PARADIS swap loop on its stripes.
    """
    radix = mask + 1
    # Stripe bounds: worker w owns [stripe[w][v], stripe[w + 1][v]).
    stripe = np.empty((workers + 1, radix), dtype=np.int64)
    for v in range(radix):
        size = tails[v] - heads[v]
        base = heads[v]
        cuts = [base + (size * w) // workers for w in range(workers + 1)]
        stripe[:, v] = cuts

    key_type = keys.dtype.type
    for w in range(workers):
        ph = stripe[w].copy()        # stripe write heads per bucket
        pt = stripe[w + 1]           # stripe ends per bucket
        for v in range(radix):
            pos = int(stripe[w][v])
            while pos < pt[v]:
                value = keys[pos]
                d = int((value >> key_type(shift)) & key_type(mask))
                if d == v:
                    pos += 1
                    continue
                dest = int(ph[d])
                if dest >= pt[d]:
                    # Destination stripe is full: leave misplaced for
                    # the repair phase.
                    pos += 1
                    continue
                # Swap toward the destination stripe head, then
                # re-examine the element that came back to ``pos``.
                keys[pos] = keys[dest]
                keys[dest] = value
                ph[d] += 1


def _repair(keys: np.ndarray, heads: np.ndarray, tails: np.ndarray,
            shift: int, mask: int) -> int:
    """Compact each bucket's active window; returns remaining misplaced.

    Stable partition of the window into correctly-placed elements
    (front) and misplaced ones (back); the active head advances past
    the correct prefix.
    """
    radix = mask + 1
    misplaced_total = 0
    for v in range(radix):
        lo, hi = int(heads[v]), int(tails[v])
        if lo >= hi:
            continue
        window = keys[lo:hi]
        correct = _digits_of(window, shift, mask) == v
        n_correct = int(np.count_nonzero(correct))
        if 0 < n_correct < window.size:
            reordered = np.concatenate([window[correct], window[~correct]])
            window[:] = reordered
        heads[v] = lo + n_correct
        misplaced_total += window.size - n_correct
    return misplaced_total


def _paradis_level_reference(keys: np.ndarray, high_bit: int,
                             radix_bits: int, workers: int) -> None:
    """The element-wise speculation/repair level (reference oracle)."""
    if keys.size <= _LOCAL_SORT_THRESHOLD or high_bit <= 0:
        small_sort(keys)
        return
    counters.levels += 1
    bits = min(radix_bits, high_bit)
    shift = high_bit - bits
    radix = 1 << bits
    mask = radix - 1

    counts = np.bincount(_digits_of(keys, shift, mask), minlength=radix)
    boundaries = np.zeros(radix + 1, dtype=np.int64)
    np.cumsum(counts, out=boundaries[1:])
    heads = boundaries[:-1].copy()
    tails = boundaries[1:].copy()

    # The speculative rounds converge quickly for non-degenerate
    # distributions; if a round makes no progress (possible when active
    # windows get smaller than the worker count), fall back to a single
    # worker, whose stripes cover the whole windows — that round always
    # places every remaining element.
    round_workers = workers
    previous = keys.size + 1
    for _ in range(_MAX_ROUNDS):
        counters.rounds += 1
        _speculative_permute(keys, heads, tails, shift, mask, round_workers)
        misplaced = _repair(keys, heads, tails, shift, mask)
        if misplaced == 0:
            break
        if misplaced >= previous:
            round_workers = 1
        previous = misplaced
    else:  # pragma: no cover - convergence guard
        raise SortError("PARADIS permutation failed to converge")

    for v in range(radix):
        lo, hi = int(boundaries[v]), int(boundaries[v + 1])
        if hi - lo > 1:
            _paradis_level_reference(keys[lo:hi], shift, radix_bits,
                                     workers)


def _paradis_level_vectorized(keys: np.ndarray, scratch: np.ndarray,
                              high_bit: int, radix_bits: int) -> None:
    """One-round bucket-window partition of a level, vectorized.

    Equivalent to a speculative round whose single worker's stripes
    cover the whole bucket windows: every element reaches its window in
    one pass (so repair finds nothing to compact).  Implemented as a
    stable counting scatter through the sort-wide ``scratch`` buffer.
    """
    if keys.size <= _LOCAL_SORT_THRESHOLD or high_bit <= 0:
        small_sort(keys)
        return
    counters.levels += 1
    counters.rounds += 1
    bits = min(radix_bits, high_bit)
    shift = high_bit - bits
    radix = 1 << bits
    key_type = keys.dtype.type
    compact = ((keys >> key_type(shift))
               & key_type(radix - 1)).astype(_digit_dtype(radix),
                                             copy=False)
    counts = np.bincount(compact, minlength=radix)
    order = _stable_digit_order(compact)
    np.take(keys, order, out=scratch)
    keys[:] = scratch
    boundaries = np.zeros(radix + 1, dtype=np.int64)
    np.cumsum(counts, out=boundaries[1:])
    for value in range(radix):
        lo, hi = int(boundaries[value]), int(boundaries[value + 1])
        if hi - lo > 1:
            _paradis_level_vectorized(keys[lo:hi], scratch[lo:hi],
                                      shift, radix_bits)


def paradis_sort(values: np.ndarray, radix_bits: int = 8,
                 workers: int = 4, *,
                 vectorized: bool = True) -> np.ndarray:
    """Return ``values`` sorted ascending with PARADIS.

    ``workers`` controls the speculative-permutation striping of the
    reference path (the paper runs PARADIS with all hardware threads;
    functionally any worker count yields the same sorted result, which
    the tests verify).  The vectorized default resolves each level in
    one partition round and ignores the striping — ``workers`` is still
    validated so the two paths stay call-compatible.
    """
    if values.ndim != 1:
        raise SortError("PARADIS expects a one-dimensional array")
    if not 1 <= radix_bits <= 16:
        raise SortError(f"radix_bits must be in [1, 16], got {radix_bits}")
    if workers < 1:
        raise SortError(f"workers must be >= 1, got {workers}")
    if values.size <= 1:
        return values.copy()
    keys, dtype = to_radix_keys(values)
    if vectorized:
        with default_pool.borrow(keys.size, keys.dtype) as scratch:
            _paradis_level_vectorized(keys, scratch, dtype.itemsize * 8,
                                      radix_bits)
    else:
        _paradis_level_reference(keys, dtype.itemsize * 8, radix_bits,
                                 workers)
    return from_radix_keys(keys, dtype)


def paradis_sort_reference(values: np.ndarray, radix_bits: int = 8,
                           workers: int = 4) -> np.ndarray:
    """The element-wise speculation/repair PARADIS (oracle path)."""
    return paradis_sort(values, radix_bits, workers, vectorized=False)
