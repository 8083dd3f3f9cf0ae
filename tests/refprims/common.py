"""Shared machinery of the radix sorts: key transforms and scatter.

Radix sorts operate on unsigned bit patterns.  Signed integers and IEEE
floats are mapped to order-preserving unsigned keys first — the same
bit tricks CUB's ``Traits`` layer applies on the GPU:

* signed int: flip the sign bit,
* float: if negative, invert all bits; otherwise set the sign bit.

Both transforms are involutions up to their inverse and strictly
monotone, so sorting the transformed keys sorts the originals.

The scatter step comes in two flavours:

* :func:`stable_counting_permutation` — the production path: one
  vectorized stable scatter over the whole digit array (NumPy's stable
  integer argsort *is* the histogram / exclusive-prefix-sum /
  rank-scatter pass a GPU performs, executed in C), O(n) and
  memory-bandwidth-bound.
* :func:`stable_counting_permutation_reference` — the seed
  implementation: a per-bucket gather that rescans the digit array once
  per bucket (``radix`` × ``flatnonzero``).  Retained as the
  property-test oracle; both flavours produce bit-identical
  permutations.

Likewise :func:`binary_insertion_sort` (the element-at-a-time local
sort of the MSB hybrids) stays as the oracle for :func:`small_sort`,
the vectorized small-bucket fallback used on the hot paths.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import SortError

#: Unsigned view type per itemsize.
_UINT_FOR_SIZE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

#: Buckets at or below this size are finished with the local sort (the
#: threshold both radix hybrids share; see Stehle & Jacobsen).
SMALL_SORT_THRESHOLD = 64


def to_radix_keys(values: np.ndarray) -> Tuple[np.ndarray, np.dtype]:
    """Map values to order-preserving unsigned keys.

    Returns the transformed key array and the original dtype (needed by
    :func:`from_radix_keys`).
    """
    dtype = values.dtype
    if dtype.kind not in "iuf":
        raise SortError(f"radix sort supports numeric keys, not {dtype}")
    uint_type = _UINT_FOR_SIZE.get(dtype.itemsize)
    if uint_type is None:
        raise SortError(f"unsupported key width {dtype.itemsize}")
    bits = values.view(uint_type)
    if dtype.kind == "u":
        return bits.copy(), dtype
    sign_bit = uint_type(1) << uint_type(dtype.itemsize * 8 - 1)
    if dtype.kind == "i":
        return bits ^ sign_bit, dtype
    # IEEE float: total order compatible with < on non-NaN values.
    negative = (bits & sign_bit) != 0
    keys = np.where(negative, ~bits, bits | sign_bit)
    return keys, dtype


def from_radix_keys(keys: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Invert :func:`to_radix_keys`."""
    uint_type = keys.dtype.type
    if dtype.kind == "u":
        return keys.view(dtype)
    sign_bit = uint_type(uint_type(1) << (dtype.itemsize * 8 - 1))
    if dtype.kind == "i":
        return (keys ^ sign_bit).view(dtype)
    was_negative = (keys & sign_bit) == 0
    bits = np.where(was_negative, ~keys, keys & ~sign_bit)
    return bits.view(dtype)


def binary_insertion_sort(keys: np.ndarray) -> None:
    """Sort ``keys`` in place by binary insertion.

    The element-at-a-time local sort of the original radix hybrids
    (Stehle's MSB sort and PARADIS).  Retained as the property-test
    oracle for :func:`small_sort`, which the hot paths use instead.
    """
    for i in range(1, keys.size):
        key = keys[i]
        lo = int(np.searchsorted(keys[:i], key, side="right"))
        if lo != i:
            keys[lo + 1:i + 1] = keys[lo:i]
            keys[lo] = key


def small_sort(keys: np.ndarray) -> None:
    """Vectorized in-place local sort for small buckets.

    Replaces :func:`binary_insertion_sort` behind the same
    :data:`SMALL_SORT_THRESHOLD`; on bare keys the two are
    element-identical (total order, no payloads to keep stable).
    """
    keys.sort()


def _digit_dtype(radix: int) -> np.dtype:
    """Narrowest unsigned dtype that holds digits in ``[0, radix)``."""
    return np.dtype(np.uint8 if radix <= 256 else np.uint16)


def _stable_digit_order(compact: np.ndarray) -> np.ndarray:
    """Stable ascending argsort of a compact (uint8/uint16) digit array.

    NumPy dispatches ``kind="stable"`` on narrow integers to its C
    radix sort — exactly the histogram + exclusive prefix sum +
    within-bucket-rank scatter of one GPU counting-sort pass.
    """
    return np.argsort(compact, kind="stable")


def _check_digit_range(digits: np.ndarray, radix: int) -> None:
    low = int(digits.min())
    high = int(digits.max())
    if low < 0 or high >= radix:
        raise SortError(
            f"digit values must lie in [0, {radix}), got range "
            f"[{low}, {high}]")


def stable_counting_permutation(digits: np.ndarray,
                                radix: int) -> np.ndarray:
    """Permutation that stably sorts ``digits`` (values in ``[0, radix)``).

    ``result[i]`` is the *source* index of the element that belongs at
    output position ``i``.  Computed as one vectorized stable scatter
    over the whole array (see the module docstring); digit values
    outside ``[0, radix)`` raise :class:`~repro.errors.SortError`
    instead of being silently folded into a grown histogram.
    """
    if digits.size == 0:
        return np.empty(0, dtype=np.int64)
    _check_digit_range(digits, radix)
    compact = digits.astype(_digit_dtype(radix), copy=False)
    return _stable_digit_order(compact).astype(np.int64, copy=False)


def stable_counting_permutation_reference(digits: np.ndarray,
                                          radix: int) -> np.ndarray:
    """The seed scatter: histogram + one gather pass per bucket.

    O(n * radix) — every bucket rescans the whole digit array.  Kept
    as the oracle the vectorized scatter is property-tested against.
    """
    if digits.size == 0:
        return np.empty(0, dtype=np.int64)
    _check_digit_range(digits, radix)
    counts = np.bincount(digits, minlength=radix)
    order = np.empty(digits.size, dtype=np.int64)
    offset = 0
    for value in range(radix):
        count = int(counts[value])
        if count == 0:
            continue
        order[offset:offset + count] = np.flatnonzero(digits == value)
        offset += count
    return order


def counting_sort_pass(keys: np.ndarray, shift: int, radix_bits: int, *,
                       payload: Optional[np.ndarray] = None,
                       out: Optional[np.ndarray] = None,
                       payload_out: Optional[np.ndarray] = None
                       ) -> Union[np.ndarray,
                                  Tuple[np.ndarray, np.ndarray]]:
    """One stable counting-sort pass on the digit at ``shift``.

    ``out`` / ``payload_out`` are optional preallocated destinations —
    the second half of the LSB sort's double buffer — so a pass moves
    data between two fixed arrays instead of allocating fresh ones.
    Returns the reordered keys (and payload, when given).
    """
    if out is keys or (payload is not None and payload_out is payload):
        raise SortError("counting_sort_pass cannot scatter in place")
    radix = 1 << radix_bits
    key_type = keys.dtype.type
    # Digits are masked to [0, radix) by construction: no range check.
    digits = (keys >> key_type(shift)) & key_type(radix - 1)
    compact = digits.astype(_digit_dtype(radix), copy=False)
    order = _stable_digit_order(compact)
    if out is None:
        out = np.empty_like(keys)
    np.take(keys, order, out=out)
    if payload is None:
        return out
    if payload_out is None:
        payload_out = np.empty_like(payload)
    np.take(payload, order, out=payload_out)
    return out, payload_out
