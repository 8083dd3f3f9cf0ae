"""Buffered LSB radix sort (Polychroniou & Ross, SIGMOD 2014 model).

The SIMD rival to PARADIS in the paper's CPU baseline study
(Section 6): an out-of-place LSB radix sort whose partitioning writes
through small cache-resident software buffers, flushing one cache line
at a time to the output — the technique that makes the scatter
SIMD/cache-friendly.  The buffering is modelled functionally: elements
pass through per-bucket staging buffers of a fixed line size before
reaching the output, so flush boundaries are exercised by the tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SortError
from tests.refprims.common import from_radix_keys, to_radix_keys

#: Elements per software buffer line (64-byte cache line of 32-bit keys).
_LINE = 16


def _buffered_partition_pass(keys: np.ndarray, out: np.ndarray, shift: int,
                             radix_bits: int) -> None:
    """One stable partition pass through per-bucket staging buffers."""
    radix = 1 << radix_bits
    key_type = keys.dtype.type
    digits = ((keys >> key_type(shift))
              & key_type(radix - 1)).astype(np.int64)
    counts = np.bincount(digits, minlength=radix)
    write_pos = np.zeros(radix, dtype=np.int64)
    np.cumsum(counts[:-1], out=write_pos[1:])

    buffers = np.empty((radix, _LINE), dtype=keys.dtype)
    fill = np.zeros(radix, dtype=np.int64)
    for pos in range(keys.size):
        d = digits[pos]
        buffers[d, fill[d]] = keys[pos]
        fill[d] += 1
        if fill[d] == _LINE:
            out[write_pos[d]:write_pos[d] + _LINE] = buffers[d]
            write_pos[d] += _LINE
            fill[d] = 0
    for d in range(radix):
        if fill[d]:
            out[write_pos[d]:write_pos[d] + fill[d]] = buffers[d, :fill[d]]
            write_pos[d] += fill[d]


def radix_sort_buffered_lsb(values: np.ndarray,
                            radix_bits: int = 8) -> np.ndarray:
    """Return ``values`` sorted ascending with the buffered LSB radix sort."""
    if values.ndim != 1:
        raise SortError("radix sort expects a one-dimensional array")
    if not 1 <= radix_bits <= 16:
        raise SortError(f"radix_bits must be in [1, 16], got {radix_bits}")
    if values.size <= 1:
        return values.copy()
    keys, dtype = to_radix_keys(values)
    scratch = np.empty_like(keys)
    key_bits = dtype.itemsize * 8
    for shift in range(0, key_bits, radix_bits):
        _buffered_partition_pass(keys, scratch, shift,
                                 min(radix_bits, key_bits - shift))
        keys, scratch = scratch, keys
    return from_radix_keys(keys, dtype)
