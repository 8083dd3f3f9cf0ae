"""From-scratch reference implementations of the paper's primitives.

NumPy re-implementations of the sorting and merging algorithms whose
vendor versions the paper measures (Table 2, Sections 5.3 and 6):

* :mod:`.radix_lsb` — the LSB radix sort underlying Thrust 1.11 / CUB,
* :mod:`.radix_msb` — Stehle & Jacobsen's MSB hybrid radix sort,
* :mod:`.merge_path` — Merge Path merging (Green et al.) and the
  MGPU-style merge sort built on it,
* :mod:`.paradis` — PARADIS, the in-place parallel radix sort of Cho
  et al. (VLDB 2015),
* :mod:`.multiway_merge` — a gnu_parallel-style k-way merge on the
  loser tree of :mod:`.losertree`,
* :mod:`.radix_simd` — Polychroniou & Ross' buffered LSB radix sort,
* :mod:`.std_sorts` — library-sort stand-ins,

with the key transforms and scatter of :mod:`.common`.

None of them is on the simulated path: a simulated kernel takes its
result from :mod:`repro.gpuprims.functional` and its time from the
calibrated rates.  They live with the tests, checked against NumPy and,
where a vectorized path replaced an element-wise one, against that
retained reference (``tests/gpuprims/test_kernel_equivalence.py``).
"""
