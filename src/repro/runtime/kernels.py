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

Temp storage: passing ``scratch`` (and ``value_scratch`` with
``values``) hands the kernel spans of its records' length, dtype and
device, each in a buffer of its own, that it may clobber; their
contents afterwards are unspecified.  A kernel of at least
:data:`~repro.runtime.offload.MIN_KEYS` keys given them computes its
functional effect there on a worker thread between launch and
completion (:mod:`repro.runtime.offload`), and copies it into the
target at completion: same instant, same bytes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import RuntimeApiError
from repro.gpuprims.functional import merge_in_place, sort_in_place, sort_into
from repro.runtime import offload
from repro.runtime.memcpy import Span, before_write

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import Machine


def _check_spans(target: Span, values: Optional[Span],
                 scratch: Optional[Span],
                 value_scratch: Optional[Span]) -> None:
    if values is not None and len(values) != len(target):
        raise RuntimeApiError(
            f"values span has {len(values)} elements, keys span has "
            f"{len(target)}")
    if scratch is None and value_scratch is None:
        return
    for name, temp, records in (("scratch", scratch, target),
                                ("value_scratch", value_scratch, values)):
        if temp is None:
            continue
        buffer = temp.buffer
        if (records is None or buffer is target.buffer
                or (values is not None and buffer is values.buffer)
                or len(temp) != len(target)
                or buffer.device is not records.buffer.device
                or buffer.dtype != records.buffer.dtype):
            raise RuntimeApiError(
                f"{name} span must match its records' length, dtype and "
                "device, in a buffer of its own")


def _offload(machine: "Machine", target: Span, values: Optional[Span],
             scratch: Optional[Span], value_scratch: Optional[Span],
             merge: bool = False) -> Optional[offload.Job]:
    """Start the kernel's functional effect on a worker, into the
    scratch; ``None`` when it computes inline at completion."""
    if (scratch is None or (values is not None and value_scratch is None)
            or not offload.takes(len(target))):
        return None
    reads = [span.view for span in (target, values) if span is not None]
    writes = [span.view for span in (scratch, value_scratch)
              if span is not None]
    work = sort_into(reads[0], writes[0], *reads[1:], *writes[1:],
                     merge=merge)
    # The worker clobbers the scratch from launch on: copies in flight
    # that read it snapshot it first.
    before_write(machine, *writes)
    return offload.launch(machine, reads, writes, work)


def _run(machine: "Machine", device, duration: float,
         job: Optional[offload.Job]):
    """Process: a kernel's timed section; joins ``job`` however it ends."""
    try:
        if machine.faults is None:
            yield machine.env.timeout(duration)
        else:
            # Race the launch against the device's (potential) hard
            # failure so a GPU dying mid-kernel aborts the launch
            # instead of letting it retire on a corpse.  Healthy
            # machines keep the bare timeout above — bit-identical to
            # the pre-fault engine.
            yield from machine.faults.run_on_device(device, duration)
    finally:
        if job is not None:
            job.close()


def _land(job: Optional[offload.Job], inline, *pairs) -> None:
    """Put the kernel's effect in its records: the job's result, copied
    from each ``(records, scratch)`` span pair, or ``inline()`` computed
    now."""
    if job is None or not job.ready:
        inline()
        return
    for records, temp in pairs:
        if records is not None:
            records.view[:] = temp.view


def sort_on_device(machine: "Machine", target: Span,
                   primitive: str = "thrust", phase: str = "Sort",
                   values: Optional[Span] = None,
                   scratch: Optional[Span] = None,
                   value_scratch: Optional[Span] = None):
    """Process: sort ``target`` (and optionally ``values``) in place.

    The duration follows the device's calibrated rate for ``primitive``
    (Table 2) and the key width (Section 6.3); payload bytes add to the
    processed volume.  ``scratch``/``value_scratch`` are temp storage
    the kernel may clobber (see the module docstring).
    """
    _check_spans(target, values, scratch, value_scratch)
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
    value_view = None if values is None else values.view
    job = _offload(machine, target, values, scratch, value_scratch)
    yield from _run(machine, device, duration, job)
    before_write(machine, view, value_view)
    _land(job, lambda: sort_in_place(view, value_view),
          (target, scratch), (values, value_scratch))
    machine.trace.record(phase, device.name, start, bytes=logical)
    return target


def merge_two_on_device(machine: "Machine", target: Span, split: int,
                        phase: str = "Merge",
                        values: Optional[Span] = None,
                        scratch: Optional[Span] = None,
                        value_scratch: Optional[Span] = None):
    """Process: merge the two sorted runs ``target[:split]``/``[split:]``.

    This is the GPU-local merge of the P2P sort's merge phase
    (``thrust::merge`` in the original, Section 5.2).  The merged
    result replaces ``target`` in place; the auxiliary buffer the real
    implementation uses is accounted for by the sorting algorithms,
    which pre-allocate it, and may be passed as ``scratch``/
    ``value_scratch`` (see the module docstring).  ``values`` payloads
    are permuted alongside.
    """
    _check_spans(target, values, scratch, value_scratch)
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
    value_view = None if values is None else values.view
    merges = split not in (0, len(view))
    job = (_offload(machine, target, values, scratch, value_scratch,
                    merge=True)
           if merges else None)
    yield from _run(machine, device, duration, job)
    if merges:
        before_write(machine, view, value_view)
        _land(job, lambda: merge_in_place(view, split, value_view),
              (target, scratch), (values, value_scratch))
    machine.trace.record(phase, device.name, start, bytes=logical)
    return target
