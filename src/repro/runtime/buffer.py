"""Host and device memory buffers, and the functional workspace pool.

Buffers pair a NumPy array (the functional payload) with placement
metadata the simulator needs (which NUMA node / GPU, pinned or not).
With a machine ``scale`` factor > 1, an array of ``n`` physical bytes
*represents* ``n * scale`` logical bytes; all timing and capacity
accounting uses logical bytes while correctness is verified on the
physical data (see DESIGN.md, "Reproduction strategy").

:class:`WorkspacePool` recycles the *host-side scratch arrays* of the
sorts (P2P sort's padded staging, HET sort's staging runs, the
supervisor's host scratch).  It has no timing effect — pooled
arrays model the pre-allocated auxiliary memory the paper's
implementations hold anyway (Section 5.1: dynamic allocation is
expensive), so reusing them only cuts host wall-clock, never simulated
time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

import numpy as np

from repro.errors import PoolError, QuotaExceededError, RuntimeApiError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.device import Device


@dataclass(frozen=True)
class PoolStats:
    """Snapshot of one :class:`WorkspacePool`'s memory accounting.

    ``borrowed_bytes``/``free_bytes`` break down by dtype string (the
    per-dtype free lists); the tenancy quotas of :mod:`repro.serve` and
    the service metrics read these without touching pool internals.
    """

    borrowed_bytes: Dict[str, int]
    free_bytes: Dict[str, int]
    hits: int
    misses: int
    quota_bytes: Optional[int]

    @property
    def total_borrowed(self) -> int:
        """Bytes currently out on loan, all dtypes."""
        return sum(self.borrowed_bytes.values())

    @property
    def total_free(self) -> int:
        """Bytes currently parked in the free lists, all dtypes."""
        return sum(self.free_bytes.values())


class WorkspacePool:
    """Recycler for one-dimensional NumPy scratch arrays.

    ``take(n, dtype)`` returns a length-``n`` view of a cached base
    array of at least ``n`` elements (allocating one on a miss);
    ``give`` returns the view's base to the pool.  :meth:`borrow` wraps
    the pair as a context manager.  Views are uninitialised on take —
    callers must fully write before reading, exactly like ``np.empty``.

    The pool is deliberately simple: per-dtype free lists kept sorted by
    size, capped at :data:`MAX_CACHED_PER_DTYPE` bases each so repeated
    large sorts cannot accumulate unbounded memory.  Single-threaded by
    design, like the simulator it serves.

    Ownership is tracked: giving a view back twice, or giving it to a
    pool it was not taken from, raises a typed :class:`PoolError`
    instead of silently corrupting the free list (the same base handed
    out to two borrowers).  ``quota_bytes`` optionally caps the bytes a
    pool may have out on loan — the per-tenant isolation mechanism of
    :mod:`repro.serve` — raising :class:`QuotaExceededError` on a take
    that would exceed it.
    """

    #: Free bases kept per dtype; the smallest are evicted beyond this.
    MAX_CACHED_PER_DTYPE = 8

    def __init__(self, quota_bytes: Optional[int] = None,
                 name: str = "") -> None:
        if quota_bytes is not None and quota_bytes < 0:
            raise RuntimeApiError(
                f"quota_bytes must be >= 0, got {quota_bytes}")
        self._free: Dict[str, List[np.ndarray]] = {}
        #: Bases currently out on loan, by ``id(base)``.
        self._out: Dict[int, np.ndarray] = {}
        self.quota_bytes = quota_bytes
        self.name = name
        self.hits = 0
        self.misses = 0

    @property
    def borrowed_bytes(self) -> int:
        """Bytes currently out on loan."""
        return sum(base.nbytes for base in self._out.values())

    def take(self, n: int, dtype) -> np.ndarray:
        """A writable, uninitialised length-``n`` view from the pool."""
        if n < 0:
            raise RuntimeApiError(f"cannot take {n} elements")
        dtype = np.dtype(dtype)
        need = max(n, 1) * dtype.itemsize
        if (self.quota_bytes is not None
                and self.borrowed_bytes + need > self.quota_bytes):
            label = f" {self.name!r}" if self.name else ""
            raise QuotaExceededError(
                f"workspace pool{label}: taking {need} bytes would put "
                f"{self.borrowed_bytes + need} bytes on loan, over the "
                f"{self.quota_bytes}-byte quota")
        bucket = self._free.get(dtype.str)
        if bucket:
            # Smallest sufficient base (list is sorted by size).
            for i, base in enumerate(bucket):
                if base.size >= n:
                    bucket.pop(i)
                    self.hits += 1
                    self._out[id(base)] = base
                    return base[:n]
        self.misses += 1
        base = np.empty(max(n, 1), dtype=dtype)
        self._out[id(base)] = base
        return base[:n]

    def give(self, view: np.ndarray) -> None:
        """Return an array obtained from :meth:`take` to the pool."""
        base = view if view.base is None else view.base
        if not isinstance(base, np.ndarray) or base.ndim != 1:
            raise RuntimeApiError(
                "workspace pool only recycles views of one-dimensional "
                "arrays")
        if self._out.pop(id(base), None) is None:
            label = f" {self.name!r}" if self.name else ""
            if any(cached is base for bucket in self._free.values()
                   for cached in bucket):
                raise PoolError(
                    f"double release: this {base.size} x {base.dtype} "
                    f"workspace is already back in pool{label}")
            raise PoolError(
                f"foreign release: this {base.size} x {base.dtype} array "
                f"was not taken from pool{label} (cross-pool give, or "
                "never borrowed)")
        bucket = self._free.setdefault(base.dtype.str, [])
        index = 0
        while index < len(bucket) and bucket[index].size < base.size:
            index += 1
        bucket.insert(index, base)
        if len(bucket) > self.MAX_CACHED_PER_DTYPE:
            # Drop the smallest base: large workspaces are the ones
            # worth keeping warm.
            bucket.pop(0)

    @contextmanager
    def borrow(self, n: int, dtype) -> Iterator[np.ndarray]:
        """``with pool.borrow(n, dtype) as scratch: ...``"""
        view = self.take(n, dtype)
        try:
            yield view
        finally:
            self.give(view)

    def stats(self) -> PoolStats:
        """Borrowed/free byte accounting (per dtype) plus hit counters."""
        borrowed: Dict[str, int] = {}
        for base in self._out.values():
            key = base.dtype.str
            borrowed[key] = borrowed.get(key, 0) + base.nbytes
        free = {key: sum(base.nbytes for base in bucket)
                for key, bucket in self._free.items() if bucket}
        return PoolStats(borrowed_bytes=borrowed, free_bytes=free,
                         hits=self.hits, misses=self.misses,
                         quota_bytes=self.quota_bytes)

    def clear(self) -> None:
        """Drop every cached base (tests and memory-pressure hooks).

        Outstanding loans stay tracked: views already taken can still be
        given back afterwards.
        """
        self._free.clear()

    @property
    def cached_bytes(self) -> int:
        """Total bytes currently parked in the pool."""
        return sum(base.nbytes for bucket in self._free.values()
                   for base in bucket)


#: Process-wide pool the sorts borrow their host scratch from.
default_pool = WorkspacePool()


class HostBuffer:
    """A host-memory array living on one NUMA node.

    ``pinned`` buffers are page-locked: the CUDA driver DMA-copies them
    directly.  Pageable buffers pay the staging penalty of
    :data:`repro.hw.calibration.PAGEABLE_PENALTY` (Section 4.2).
    """

    def __init__(self, data: np.ndarray, numa: int = 0, pinned: bool = True):
        if data.ndim != 1:
            raise RuntimeApiError("buffers must wrap one-dimensional arrays")
        self.data = data
        self.numa = numa
        self.pinned = pinned

    @property
    def nbytes(self) -> int:
        """Physical payload size in bytes."""
        return self.data.nbytes

    @property
    def dtype(self) -> np.dtype:
        """Element type of the payload."""
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        kind = "pinned" if self.pinned else "pageable"
        return (f"<HostBuffer {len(self.data)} x {self.data.dtype} "
                f"on numa{self.numa} ({kind})>")


class DeviceBuffer:
    """A pre-allocated device-memory array on one GPU.

    Sorting implementations pre-allocate all device memory up front
    (Section 5.1: dynamic allocations are expensive — 150 ms for 8 GB on
    the AC922); the allocator in :class:`repro.runtime.device.Device`
    enforces the capacity limit in logical bytes.

    ``valid`` tracks how many leading elements currently hold meaningful
    data; slicing helpers hand out views for kernels and copies.
    """

    def __init__(self, device: "Device", data: np.ndarray, label: str = ""):
        if data.ndim != 1:
            raise RuntimeApiError("buffers must wrap one-dimensional arrays")
        self.device = device
        self._data = data
        self.label = label
        self.valid = 0
        self.released = False

    @property
    def data(self) -> np.ndarray:
        """The payload array; raises after :meth:`free` (use-after-free)."""
        if self.released:
            raise RuntimeApiError(
                f"use after free: {self.label or 'device buffer'} on "
                f"{self.device.name} was already released")
        return self._data

    @property
    def capacity(self) -> int:
        """Capacity in elements."""
        return len(self._data)

    @property
    def nbytes(self) -> int:
        """Physical capacity in bytes."""
        return self._data.nbytes

    @property
    def dtype(self) -> np.dtype:
        """Element type of the payload."""
        return self._data.dtype

    def view(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """A writable element-range view of the payload."""
        stop = self.capacity if stop is None else stop
        if not 0 <= start <= stop <= self.capacity:
            raise RuntimeApiError(
                f"view [{start}:{stop}) out of range for capacity "
                f"{self.capacity}")
        return self.data[start:stop]

    def valid_view(self) -> np.ndarray:
        """View of the currently valid prefix."""
        return self.data[:self.valid]

    def free(self) -> None:
        """Return this buffer's reservation to the device allocator."""
        self.device._release(self)
        self.released = True

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return (f"<DeviceBuffer {self.label or hex(id(self))} "
                f"{self.capacity} x {self.dtype} on {self.device.name}>")
