"""Library-sort stand-ins.

The paper benchmarks PARADIS against gnu_parallel's sort, Intel TBB's
``parallel_sort`` and the parallel C++17 ``std::sort`` (Section 6).
Functionally these are comparison sorts; their merge-sort /
quicksort-flavoured behaviour is represented here by stable and
unstable NumPy sorts, while the *performance* distinction lives
entirely in the calibrated rates of :class:`repro.hw.host.CpuSpec`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SortError


def library_sort(values: np.ndarray,
                 flavour: str = "gnu_parallel") -> np.ndarray:
    """Sorted copy via a library-sort stand-in.

    ``gnu_parallel`` is a stable multiway mergesort; ``tbb`` and
    ``std_par`` are unstable quicksort-family sorts.
    """
    if flavour == "gnu_parallel":
        kind = "stable"
    elif flavour in ("tbb", "std_par"):
        kind = "quicksort"
    else:
        raise SortError(f"unknown library sort flavour {flavour!r}")
    return np.sort(values, kind=kind)
