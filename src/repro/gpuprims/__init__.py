"""The functional effect of the simulated sort and merge kernels.

:mod:`repro.gpuprims.functional` sorts or merges a kernel's payload
with NumPy, in NumPy's sort order; the kernel's simulated time comes
from the calibrated rates of :mod:`repro.hw.calibration`.
"""

from repro.gpuprims.functional import merge_in_place, sort_in_place

__all__ = ["merge_in_place", "sort_in_place"]
