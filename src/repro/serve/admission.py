"""Admission control: shed load with typed reasons, never queue blind.

Checks run in a fixed order — draining, queue-full, quota-exceeded,
deadline-infeasible — and failure raises
:class:`~repro.errors.AdmissionRejected` with the matching reason, so
callers (and the benchmark's rejection-rate curves) can react per
cause.  Admission is *pessimistic about statics only*: it rejects jobs
that could never succeed (scratch over quota, deadline shorter than
the bare service time) and sheds the rest purely on queue bounds,
leaving transient judgement calls to the scheduler and supervisor.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import AdmissionRejected
from repro.serve.job import JobSpec
from repro.serve.queue import BoundedJobQueue
from repro.serve.tenancy import Tenant


def scratch_bytes(spec: JobSpec) -> int:
    """Host scratch the supervisor will borrow for ``spec``.

    The P2P driver stages a padded copy of the input when the GPU
    count does not divide it; the HET driver borrows at most one run
    per chunk, totalling the input size (none when the plan comes back
    as one run).  Either way the bound is one input-sized scratch
    array.  Eager merging would borrow one more run per group, but
    service jobs never set it.  Device buffers (two or three
    chunk-sized ones per GPU for HET) are not host scratch.
    """
    itemsize = np.dtype(spec.dtype).itemsize
    if spec.algorithm == "p2p":
        chunk = -(-spec.keys // max(1, spec.gpus))
        return chunk * max(1, spec.gpus) * itemsize
    return spec.keys * itemsize


class AdmissionController:
    """Decides, synchronously at submission, whether a job may queue."""

    def __init__(self, queue: BoundedJobQueue,
                 estimate_service_s: Callable[[JobSpec], float]):
        self.queue = queue
        self.estimate_service_s = estimate_service_s
        #: Set by the service's drain/shutdown path.
        self.draining = False

    def admit(self, spec: JobSpec, tenant: Tenant) -> None:
        """Raise :class:`~repro.errors.AdmissionRejected` or return."""
        if self.draining:
            raise AdmissionRejected(
                "draining", f"job {spec.label}: the service is draining "
                "and accepts no new work")
        if self.queue.full:
            raise AdmissionRejected(
                "queue-full", f"job {spec.label}: the admission queue "
                f"holds {self.queue.capacity} jobs already")
        if tenant.quota_bytes is not None:
            needed = scratch_bytes(spec)
            if needed > tenant.quota_bytes:
                raise AdmissionRejected(
                    "quota-exceeded", f"job {spec.label} needs ~{needed} "
                    f"bytes of workspace but tenant {tenant.name!r} is "
                    f"capped at {tenant.quota_bytes} bytes")
        if spec.deadline_s is not None:
            estimate = self.estimate_service_s(spec)
            if estimate > spec.deadline_s:
                raise AdmissionRejected(
                    "deadline-infeasible", f"job {spec.label} asks for a "
                    f"{spec.deadline_s:.3f}s deadline but needs an "
                    f"estimated {estimate:.3f}s even starting now")
