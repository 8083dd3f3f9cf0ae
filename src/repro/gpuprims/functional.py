"""The functional effect of every simulated sort and merge kernel.

A simulated kernel launch has two effects.  Simulated time advances at
the device's calibrated rate (Table 2), and the payload array ends up
sorted or merged.  This module computes the second one, with NumPy,
for the GPU kernels of :mod:`repro.runtime.kernels` and the CPU
operations of :mod:`repro.runtime.cpu_ops` alike.  Which primitive a
kernel models (Thrust, CUB, Stehle's MSB radix sort, MGPU's merge,
PARADIS, gnu_parallel's multiway merge) picks only its calibrated rate,
never its result.

The output order is NumPy's sort order (``np.sort``): ``-0.0`` and
``+0.0`` tie and every NaN sorts last.  Every other stage of the sort
pipelines compares keys in that order too: the pivot search, the
splitter searches and the output checks.

Outputs are bit-level permutations of their inputs.  Equal integers
are bit-identical, so integer and bool keys take NumPy's fastest
(unstable, SIMD) sort.  Float keys take the stable sort: the default
one rewrites NaN payloads on NumPy 2 (``0xFFC00001`` comes back as
``0x7FC00000``).  Records sort and merge stably, so ties keep their
input order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SortError


def _gather(keys: np.ndarray, values: np.ndarray) -> None:
    """Sort ``keys`` in place, carrying ``values`` along, stably."""
    order = np.argsort(keys, kind="stable")
    keys[:] = keys[order]
    values[:] = values[order]


def sort_in_place(keys: np.ndarray,
                  values: Optional[np.ndarray] = None) -> np.ndarray:
    """Sort ``keys`` in place; with ``values``, sort the records."""
    if values is not None:
        _gather(keys, values)
    elif keys.dtype.kind in "biu":
        keys.sort()
    else:
        keys.sort(kind="stable")
    return keys


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


def merge_in_place(keys: np.ndarray, split: int,
                   values: Optional[np.ndarray] = None) -> np.ndarray:
    """Merge the sorted runs ``keys[:split]`` and ``keys[split:]`` in place.

    Ties go to the first run.  With ``values`` the records merge; a
    stable sort of the two adjacent runs is their merge.
    """
    if values is None:
        return merge_runs_in_place(keys, split)
    if not 0 <= split <= keys.size:
        raise SortError(
            f"split {split} out of range for {keys.size} elements")
    _gather(keys, values)
    return keys
