"""Functional CPU sorting and merging primitives.

The paper's host side rests on three workhorses, all re-implemented
here from scratch:

* :mod:`repro.cpuprims.paradis` — PARADIS, the in-place parallel radix
  sort of Cho et al. (VLDB 2015), the paper's CPU baseline,
* :mod:`repro.cpuprims.multiway_merge` — a gnu_parallel-style k-way
  merge on the loser-tree of :mod:`repro.cpuprims.losertree`,
* :mod:`repro.cpuprims.radix_simd` — Polychroniou & Ross' buffered LSB
  radix sort (the SIMD rival baseline of Section 6),

plus library-sort stand-ins (:mod:`repro.cpuprims.std_sorts`) and a
STREAM-style sustainable-bandwidth model (:mod:`repro.cpuprims.stream`).
"""

from repro.cpuprims.losertree import LoserTree
from repro.cpuprims.multiway_merge import (
    multiway_merge,
    multiway_merge_losertree,
    multiway_merge_with_values,
)
from repro.cpuprims.paradis import paradis_sort
from repro.cpuprims.radix_simd import radix_sort_buffered_lsb
from repro.cpuprims.std_sorts import library_sort

__all__ = [
    "LoserTree",
    "library_sort",
    "multiway_merge",
    "multiway_merge_losertree",
    "multiway_merge_with_values",
    "paradis_sort",
    "radix_sort_buffered_lsb",
]
