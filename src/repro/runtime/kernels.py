"""GPU kernel launches: on-device sorting and merging.

Each launch has a functional effect (the NumPy payload is sorted or
merged with the from-scratch primitives of :mod:`repro.gpuprims`) and a
timing effect (simulated time advances by the device's calibrated
rate).  With ``machine.fast_functional`` the functional effect is
computed with NumPy's built-in sort instead — timing is identical, only
the host-side wall-clock cost of big benchmark runs drops.

Merges are linear in both modes.  The real path runs Merge Path
(:func:`repro.gpuprims.merge_path.merge_sorted`: balanced segments,
each merged sequentially); the fast path merges the two adjacent runs
in place with :func:`repro.gpuprims.merge_path.merge_runs_in_place`,
the same linear run merge without the segmenting.  Both give the same
element order — ties go to the first run — so the mode never changes a
result.

Key-value variants: passing ``values`` makes the kernel carry a payload
array alongside the keys.  Payload bytes count toward the kernel's
processed volume, so 8-byte payloads roughly triple an int32 sort's
duration — the honest cost of sorting records instead of bare keys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import RuntimeApiError
from repro.gpuprims.merge_path import (
    merge_runs_in_place,
    merge_sorted,
    merge_sorted_with_values,
)
from repro.gpuprims.radix_lsb import argsort_radix_lsb
from repro.gpuprims.registry import functional_sort
from repro.runtime.buffer import default_pool
from repro.runtime.memcpy import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import Machine


def _check_values(target: Span, values: Optional[Span]) -> None:
    if values is not None and len(values) != len(target):
        raise RuntimeApiError(
            f"values span has {len(values)} elements, keys span has "
            f"{len(target)}")


def sort_on_device(machine: "Machine", target: Span,
                   primitive: str = "thrust", phase: str = "Sort",
                   values: Optional[Span] = None):
    """Process: sort ``target`` (and optionally ``values``) in place.

    The duration follows the device's calibrated rate for ``primitive``
    (Table 2) and the key width (Section 6.3); payload bytes add to the
    processed volume.
    """
    _check_values(target, values)
    device = target.buffer.device
    view = target.view
    logical = target.nbytes * machine.scale
    if values is not None:
        logical += values.nbytes * machine.scale
    start = machine.env.now
    duration = device.spec.sort_seconds(primitive, logical,
                                        view.dtype.itemsize)
    if device.compute_slowdown != 1.0:
        duration *= device.compute_slowdown
    if machine.obs is not None:
        machine.obs.kernel_launched(device.name, phase, logical, duration,
                                    start)
    if machine.faults is None:
        yield machine.env.timeout(duration)
    else:
        # Race the launch against the device's (potential) hard failure
        # so a GPU dying mid-kernel aborts the launch instead of letting
        # it retire on a corpse.  Healthy machines keep the bare timeout
        # above — bit-identical to the pre-fault engine.
        yield from machine.faults.run_on_device(device, duration)
    if values is None:
        if machine.fast_functional:
            view.sort()
        else:
            functional_sort(primitive)(view, out=view)
    else:
        if machine.fast_functional:
            order = np.argsort(view, kind="stable")
        else:
            order = argsort_radix_lsb(view)
        view[:] = view[order]
        values.view[:] = values.view[order]
    machine.trace.record(phase, device.name, start, bytes=logical)
    return target


def merge_two_on_device(machine: "Machine", target: Span, split: int,
                        phase: str = "Merge",
                        values: Optional[Span] = None):
    """Process: merge the two sorted runs ``target[:split]``/``[split:]``.

    This is the GPU-local merge of the P2P sort's merge phase
    (``thrust::merge`` in the original, Section 5.2).  The merged
    result replaces ``target`` in place; the auxiliary buffer the real
    implementation uses is accounted for by the sorting algorithms,
    which pre-allocate it.  ``values`` payloads are permuted alongside.
    """
    _check_values(target, values)
    device = target.buffer.device
    view = target.view
    if not 0 <= split <= len(view):
        raise ValueError(f"split {split} out of range for {len(view)} elements")
    logical = target.nbytes * machine.scale
    if values is not None:
        logical += values.nbytes * machine.scale
    start = machine.env.now
    duration = device.spec.merge_seconds(logical)
    if device.compute_slowdown != 1.0:
        duration *= device.compute_slowdown
    if machine.obs is not None:
        machine.obs.kernel_launched(device.name, phase, logical, duration,
                                    start)
    if machine.faults is None:
        yield machine.env.timeout(duration)
    else:
        yield from machine.faults.run_on_device(device, duration)
    if split not in (0, len(view)):
        if values is None and machine.fast_functional:
            # The two runs are already adjacent: merge them in place,
            # with no scratch buffer.
            merge_runs_in_place(view, split)
        elif values is None:
            # The merge scratch comes from the workspace pool — this
            # models the pre-allocated auxiliary buffer of the real
            # implementation rather than a per-merge allocation.
            with default_pool.borrow(len(view), view.dtype) as merged:
                merge_sorted(view[:split], view[split:], out=merged)
                view[:] = merged
        else:
            payload = values.view
            with default_pool.borrow(len(view), view.dtype) as merged, \
                    default_pool.borrow(len(payload),
                                        payload.dtype) as merged_values:
                merge_sorted_with_values(
                    view[:split], view[split:], payload[:split],
                    payload[split:], out_keys=merged,
                    out_values=merged_values)
                view[:] = merged
                payload[:] = merged_values
    machine.trace.record(phase, device.name, start, bytes=logical)
    return target
