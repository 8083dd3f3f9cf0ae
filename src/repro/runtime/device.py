"""The virtual GPU device: allocator and copy engines."""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.errors import AllocationError
from repro.hw.gpu import GpuSpec
from repro.runtime.buffer import DeviceBuffer
from repro.runtime.sync import Semaphore

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import Machine


class Device:
    """One GPU of the machine.

    Tracks device-memory allocations against the GPU's capacity (in
    logical bytes, honoring the machine scale) and owns the two DMA
    copy engines — one per transfer direction — that modern GPUs
    provide (Section 5.3: "Modern GPUs are typically equipped with at
    least two copy engines").
    """

    def __init__(self, machine: "Machine", gpu_id: int, name: str,
                 spec: GpuSpec, numa: int):
        self.machine = machine
        self.id = gpu_id
        self.name = name
        self.spec = spec
        self.numa = numa
        #: Physical bytes of the live buffers: an exact integer count,
        #: so a device with none reads exactly zero.
        self._allocated_bytes = 0
        self._buffers: List[DeviceBuffer] = []
        #: Inbound (writes into this GPU) and outbound DMA engines.
        self.engine_in = Semaphore(machine.env, 1, label=f"{name}.dma_in")
        self.engine_out = Semaphore(machine.env, 1, label=f"{name}.dma_out")
        #: Kernel-duration multiplier (fault injection: straggler GPUs).
        #: Exactly 1.0 when healthy; kernel launches skip it then, so
        #: fault-free timing is untouched.
        self.compute_slowdown = 1.0

    # -- memory ------------------------------------------------------------
    @property
    def capacity_logical(self) -> float:
        """Device memory capacity in logical bytes."""
        return self.spec.memory_bytes

    @property
    def allocated_logical(self) -> float:
        """Allocated device memory in logical bytes."""
        return self._allocated_bytes * self.machine.scale

    @property
    def free_logical(self) -> float:
        """Unallocated device memory in logical bytes."""
        return self.capacity_logical - self.allocated_logical

    def max_elements(self, dtype: np.dtype, fraction: float = 1.0) -> int:
        """Physical element count fitting ``fraction`` of free memory."""
        logical = self.free_logical * fraction
        physical_bytes = logical / self.machine.scale
        return int(physical_bytes // np.dtype(dtype).itemsize)

    def alloc(self, n: int, dtype, label: str = "") -> DeviceBuffer:
        """Reserve a device buffer of ``n`` elements.

        Raises :class:`~repro.errors.AllocationError` when the request
        exceeds the remaining capacity.  Allocation is *accounted*, not
        timed; call :meth:`alloc_timed` from process code to also charge
        the cudaMalloc cost (the sorting algorithms pre-allocate, so the
        paper excludes this time — Section 6).
        """
        faults = self.machine.faults
        if faults is not None:
            faults.check_device(self)
        itemsize = np.dtype(dtype).itemsize
        logical = n * itemsize * self.machine.scale
        if logical > self.free_logical * (1 + 1e-9):
            raise AllocationError(
                f"{self.name}: allocation of {logical / 1e9:.2f} GB (logical) "
                f"exceeds free capacity {self.free_logical / 1e9:.2f} GB")
        data = np.empty(n, dtype=dtype)
        buffer = DeviceBuffer(self, data, label=label)
        self._allocated_bytes += buffer.nbytes
        self._buffers.append(buffer)
        return buffer

    def alloc_timed(self, n: int, dtype, label: str = ""):
        """Process: allocate and charge the cudaMalloc duration."""
        buffer = self.alloc(n, dtype, label=label)
        logical = buffer.nbytes * self.machine.scale
        yield self.machine.env.timeout(self.spec.alloc_seconds(logical))
        return buffer

    def _release(self, buffer: DeviceBuffer) -> None:
        if buffer not in self._buffers:
            raise AllocationError(f"{buffer!r} was not allocated here")
        self._buffers.remove(buffer)
        self._allocated_bytes -= buffer.nbytes

    def reset(self) -> None:
        """Free every allocation (e.g. between benchmark repetitions)."""
        self._buffers.clear()
        self._allocated_bytes = 0

    def __repr__(self) -> str:
        return (f"<Device {self.name} ({self.spec.model}) "
                f"used={self.allocated_logical / 1e9:.2f} GB>")
