"""GPU kernel launches: on-device sorting and merging.

Each launch has a timing effect (simulated time advances by the
device's calibrated rate for the primitive, Table 2) and a functional
effect (the NumPy payload is sorted or merged).  The functional effect
comes from :mod:`repro.gpuprims.functional` in NumPy's sort order,
whatever primitive the launch names: the primitive picks the rate, not
the result.  Merges keep ties in the first run.

Key-value variants: passing ``values`` makes the kernel carry a payload
array alongside the keys.  Payload bytes count toward the kernel's
processed volume, so 8-byte payloads roughly triple an int32 sort's
duration — the honest cost of sorting records instead of bare keys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import RuntimeApiError
from repro.gpuprims.functional import merge_in_place, sort_in_place
from repro.runtime.memcpy import Span, before_write

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
    value_view = None if values is None else values.view
    before_write(machine, view, value_view)
    sort_in_place(view, value_view)
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
        value_view = None if values is None else values.view
        before_write(machine, view, value_view)
        merge_in_place(view, split, value_view)
    machine.trace.record(phase, device.name, start, bytes=logical)
    return target
