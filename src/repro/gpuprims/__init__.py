"""Functional single-GPU sorting and merging primitives.

These are real, from-scratch NumPy implementations of the algorithms
whose GPU incarnations the paper evaluates in Table 2:

* :func:`repro.gpuprims.radix_lsb.radix_sort_lsb` — the LSB radix sort
  underlying Thrust 1.11 / CUB,
* :func:`repro.gpuprims.radix_msb.radix_sort_msb` — Stehle &
  Jacobsen's MSB hybrid radix sort,
* :func:`repro.gpuprims.merge_path.merge_sorted` /
  :func:`repro.gpuprims.merge_path.merge_sort` — Merge Path based
  merging (Green et al.), each segment a linear run merge
  (:func:`repro.gpuprims.merge_path.merge_runs_in_place`), and the
  MGPU-style merge sort built on it.

They are the library the ``kernels`` benchmark measures.  The simulated
kernels take their functional effect from
:mod:`repro.gpuprims.functional` instead (NumPy, in NumPy's sort
order), and their timing from the calibrated rates.
"""

from repro.gpuprims.functional import merge_in_place, sort_in_place
from repro.gpuprims.merge_path import (
    merge_partitions,
    merge_runs_in_place,
    merge_sort,
    merge_sorted,
    merge_sorted_with_values,
)
from repro.gpuprims.radix_lsb import radix_sort_lsb
from repro.gpuprims.radix_msb import radix_sort_msb

__all__ = [
    "merge_in_place",
    "merge_partitions",
    "merge_runs_in_place",
    "merge_sorted_with_values",
    "merge_sort",
    "merge_sorted",
    "radix_sort_lsb",
    "radix_sort_msb",
    "sort_in_place",
]
