"""LSB (least-significant-bit first) radix sort.

This is the algorithm behind ``thrust::sort`` since release 1.11 and
CUB's ``DeviceRadixSort`` (Section 5.1: the paper finds both identical
because they share one underlying LSB radix sort).  The sort makes
``ceil(key_bits / radix_bits)`` stable counting-sort passes from the
least to the most significant digit; stability of each pass makes the
composition correct.

The implementation double-buffers between the transformed key array and
*one* auxiliary array borrowed from the workspace pool, mirroring
Thrust's ``O(n)`` temporary-memory requirement the paper discusses (the
multi-GPU sorts pre-allocate and reuse exactly this auxiliary buffer
for the P2P swaps, Section 5.2).  Each pass scatters between the two
fixed buffers — no per-pass allocation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SortError
from tests.refprims.common import (
    counting_sort_pass,
    from_radix_keys,
    to_radix_keys,
)
from repro.runtime.buffer import default_pool


def _validate(values: np.ndarray, radix_bits: int) -> None:
    if values.ndim != 1:
        raise SortError("radix sort expects a one-dimensional array")
    if not 1 <= radix_bits <= 16:
        raise SortError(f"radix_bits must be in [1, 16], got {radix_bits}")


def radix_sort_lsb(values: np.ndarray, radix_bits: int = 8, *,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Return ``values`` sorted ascending with an LSB radix sort.

    ``radix_bits`` is the digit width per pass (CUB uses 4-8 bits
    depending on architecture; more bits mean fewer passes but a larger
    histogram).  Works for any numeric dtype via the order-preserving
    key transforms in :mod:`tests.refprims.common`.  Pass ``out`` (same
    length and dtype as ``values``) to receive the sorted keys in a
    preallocated array; sorting into the input array itself is allowed.
    """
    _validate(values, radix_bits)
    if values.size <= 1:
        if out is None:
            return values.copy()
        out[:] = values
        return out
    keys, dtype = to_radix_keys(values)
    key_bits = dtype.itemsize * 8
    with default_pool.borrow(keys.size, keys.dtype) as aux:
        current, alternate = keys, aux
        for shift in range(0, key_bits, radix_bits):
            counting_sort_pass(current, shift,
                               min(radix_bits, key_bits - shift),
                               out=alternate)
            current, alternate = alternate, current
        if current is not keys:
            # Odd pass count: land the result in the owned buffer so
            # nothing returned below aliases the pooled workspace.
            keys[:] = current
    result = from_radix_keys(keys, dtype)
    if out is None:
        return result
    out[:] = result
    return out


def argsort_radix_lsb(values: np.ndarray,
                      radix_bits: int = 8) -> np.ndarray:
    """Stable ascending argsort using the same LSB radix machinery."""
    _validate(values, radix_bits)
    keys, _ = to_radix_keys(values)
    key_bits = values.dtype.itemsize * 8
    indices = np.arange(values.size, dtype=np.int64)
    if values.size <= 1:
        return indices
    with default_pool.borrow(keys.size, keys.dtype) as key_aux, \
            default_pool.borrow(keys.size, np.int64) as index_aux:
        current, alternate = keys, key_aux
        current_idx, alternate_idx = indices, index_aux
        for shift in range(0, key_bits, radix_bits):
            counting_sort_pass(current, shift,
                               min(radix_bits, key_bits - shift),
                               payload=current_idx, out=alternate,
                               payload_out=alternate_idx)
            current, alternate = alternate, current
            current_idx, alternate_idx = alternate_idx, current_idx
        if current_idx is not indices:
            indices[:] = current_idx
    return indices
