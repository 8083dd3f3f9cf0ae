"""MSB (most-significant-bit first) hybrid radix sort.

Models the sort of Stehle & Jacobsen (SIGMOD 2017): partition on the
most significant digit first, then recurse into each bucket
independently — an MSB pass need not preserve the order established by
previous passes, which lets the algorithm consider more bits per pass
(Section 5.1).  Small buckets fall back to the vectorized local sort,
matching the original's local-sort stage.

Each level is one vectorized counting scatter into a shared scratch
buffer (borrowed once per sort from the workspace pool) followed by a
copy back — the out-of-place stand-in for the original's in-place block
permutations; the bucket structure and recursion are the
algorithmically relevant parts.
"""

from __future__ import annotations

from typing import Optional

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


def _msb_partition(keys: np.ndarray, scratch: np.ndarray, high_bit: int,
                   radix_bits: int) -> None:
    """Recursively partition ``keys`` on the digit below ``high_bit``.

    ``scratch`` is the level's gather target — the same element range of
    the sort-wide workspace, so recursion reuses one buffer throughout.
    """
    if keys.size <= _LOCAL_SORT_THRESHOLD or high_bit <= 0:
        small_sort(keys)
        return
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
            _msb_partition(keys[lo:hi], scratch[lo:hi], shift, radix_bits)


def radix_sort_msb(values: np.ndarray, radix_bits: int = 8, *,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Return ``values`` sorted ascending with an MSB hybrid radix sort.

    Pass ``out`` to receive the sorted keys in a preallocated array
    (sorting into the input array itself is allowed).
    """
    if values.ndim != 1:
        raise SortError("radix sort expects a one-dimensional array")
    if not 1 <= radix_bits <= 16:
        raise SortError(f"radix_bits must be in [1, 16], got {radix_bits}")
    if values.size <= 1:
        if out is None:
            return values.copy()
        out[:] = values
        return out
    keys, dtype = to_radix_keys(values)
    with default_pool.borrow(keys.size, keys.dtype) as scratch:
        _msb_partition(keys, scratch, dtype.itemsize * 8, radix_bits)
    result = from_radix_keys(keys, dtype)
    if out is None:
        return result
    out[:] = result
    return out
