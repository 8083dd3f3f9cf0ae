"""Host-side models.

:mod:`repro.cpuprims.stream` is the STREAM-style sustainable-bandwidth
model behind the Section 5.3 merge-saturation check.  The CPU sorts and
merges themselves are simulated operations (:mod:`repro.runtime.cpu_ops`)
timed by calibrated rates.
"""
