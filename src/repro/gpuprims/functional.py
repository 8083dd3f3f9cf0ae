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

from typing import Callable, Optional

import numpy as np

from repro.errors import SortError


def _gather(keys: np.ndarray, values: np.ndarray) -> None:
    """Sort ``keys`` in place, carrying ``values`` along, stably."""
    order = np.argsort(keys, kind="stable")
    keys[:] = keys[order]
    values[:] = values[order]


def sort_kind(keys: np.ndarray) -> Optional[str]:
    """The NumPy sort kind that sorts bare ``keys``: the default for
    integer and bool keys, ``"stable"`` for floats."""
    return None if keys.dtype.kind in "biu" else "stable"


def sort_in_place(keys: np.ndarray,
                  values: Optional[np.ndarray] = None) -> np.ndarray:
    """Sort ``keys`` in place; with ``values``, sort the records."""
    if values is not None:
        _gather(keys, values)
    else:
        keys.sort(kind=sort_kind(keys))
    return keys


def sort_into(keys: np.ndarray, out: np.ndarray,
              values: Optional[np.ndarray] = None,
              value_out: Optional[np.ndarray] = None,
              merge: bool = False) -> Callable[[], None]:
    """The work that writes the sort of ``keys`` (of the records, with
    ``values``) to ``out`` (and ``value_out``), leaving the inputs alone.

    The result holds the same bytes :func:`sort_in_place` (with
    ``merge=True``, :func:`merge_in_place` of two adjacent runs) leaves
    in the inputs.  The returned function makes NumPy calls only, so
    another thread may run it (:mod:`repro.runtime.offload`).
    """
    if values is None:
        kind = "stable" if merge else sort_kind(keys)

        def work() -> None:
            np.copyto(out, keys)
            out.sort(kind=kind)
    else:
        def work() -> None:
            order = np.argsort(keys, kind="stable")
            np.take(keys, order, out=out, mode="clip")
            np.take(values, order, out=value_out, mode="clip")
    return work


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
