"""P2P sort: GPU-only multi-GPU sorting (Section 5.2).

The algorithm of Tanasic et al., extended to any ``g = 2^k`` GPUs
(Algorithm 2):

1. partition the input into ``g`` equal chunks, copy one to each GPU,
2. sort every chunk locally (fastest single-GPU primitive, Table 2),
3. merge the chunks into the globally sorted order through a series of
   merge stages: recursively merge each half, run the global
   pivot-swap-merge step across the halves, then recursively merge the
   halves again,
4. copy the chunks back to the host.

Implementation notes carried over from the paper:

* leftmost-pivot selection minimizes (and can entirely skip) P2P
  traffic,
* swaps are out-of-place into the sort's auxiliary buffer, overlapping
  the inbound P2P stream with a device-local copy of the kept block,
* the GPU *order* matters on partially-connected topologies
  (Section 5.4) — pass an explicitly ordered ``gpu_ids`` or let
  :func:`repro.sort.gpu_set.best_gpu_order_for_p2p` pick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import SortError
from repro.faults.policy import ResiliencePolicy
from repro.runtime.buffer import DeviceBuffer, HostBuffer
from repro.runtime.context import Machine
from repro.runtime.kernels import sort_on_device
from repro.runtime.memcpy import Span, copy_async, span
from repro.sort.pivot import is_valid_pivot, select_pivot, select_pivot_paper
from repro.sort.result import SortResult
from repro.sort.swap import _no_check, block_swap_sizes, swap_and_merge_pair
from repro.units import US


@dataclass
class P2PConfig:
    """Tunables of the P2P sort (defaults follow the paper)."""

    #: Single-GPU sort primitive (Table 2; ``thrust`` is the fastest).
    primitive: str = "thrust"
    #: Use the leftmost valid pivot (skips empty swaps).  ``False``
    #: falls back to the paper's literal Algorithm 1 for the ablation.
    leftmost_pivot: bool = True
    #: Overlap the P2P streams with device-local copies (out-of-place
    #: swap).  ``False`` serializes the two P2P copy directions — the
    #: ablation for the Section 5.2 claim that the optimization holds.
    out_of_place_swap: bool = True
    #: Route host-staged P2P swaps through relay GPUs when a faster
    #: all-NVLink path exists (Section 7 future work, implemented here;
    #: see :mod:`repro.runtime.multihop`).
    multihop: bool = False
    #: Where the input chunks are staged: ``"node0"`` (the paper's
    #: setup — everything in NUMA node 0) or ``"numa-local"`` (each
    #: GPU's chunk on its own node; see :mod:`repro.sort.placement`).
    input_placement: str = "node0"
    #: With ``numa-local`` placement, charge the one-time host-to-host
    #: shuffle that moves remote chunks across the CPU interconnect.
    charge_redistribution: bool = True


#: Latency of one remote P2P memory read during pivot selection.
PIVOT_PROBE_LATENCY_S = 2 * US


@dataclass
class P2PStats:
    """What one P2P merge did: the bytes its swaps moved, its pivots."""

    p2p_bytes: float = 0.0
    pivots: List[int] = field(default_factory=list)


class Chunk:
    """One GPU's chunk: primary/auxiliary key buffers, optional payloads."""

    def __init__(self, device, primary: DeviceBuffer, aux: DeviceBuffer,
                 value_primary: Optional[DeviceBuffer] = None,
                 value_aux: Optional[DeviceBuffer] = None):
        self.device = device
        self.primary = primary
        self.aux = aux
        self.value_primary = value_primary
        self.value_aux = value_aux

    @property
    def size(self) -> int:
        return self.primary.capacity

    @property
    def has_values(self) -> bool:
        return self.value_primary is not None

    def flip_buffers(self) -> None:
        """Swap primary and auxiliary roles (after an out-of-place swap)."""
        self.primary, self.aux = self.aux, self.primary
        if self.has_values:
            self.value_primary, self.value_aux = (self.value_aux,
                                                  self.value_primary)

    @classmethod
    def alloc(cls, device, count: int, dtype, value_dtype=None,
              alloc=None) -> "Chunk":
        """Allocate one GPU's chunk of ``count`` records.

        Primary and auxiliary key buffers, plus payload buffers when
        ``value_dtype`` is set.  ``alloc(device, count, dtype, label)``
        allocates each buffer; the default is ``device.alloc``.
        """
        if alloc is None:
            alloc = _device_alloc
        kinds = [("chunk", dtype), ("aux", dtype)]
        if value_dtype is not None:
            kinds += [("vals", value_dtype), ("vaux", value_dtype)]
        return cls(device, *(alloc(device, count, kind_dtype,
                                   f"{kind}{device.id}")
                             for kind, kind_dtype in kinds))

    def free(self) -> None:
        """Free every buffer not yet released."""
        for buffer in (self.primary, self.aux, self.value_primary,
                       self.value_aux):
            if buffer is not None and not buffer.released:
                buffer.free()


def _device_alloc(device, count: int, dtype, label: str) -> DeviceBuffer:
    return device.alloc(count, dtype, label=label)


class _ConcatView:
    """Read-only view of several equal chunks as one sorted array.

    Pivot selection reads single elements across the chunk group; on
    real hardware those are remote P2P reads.
    """

    def __init__(self, chunks: Sequence[Chunk]):
        self.chunks = list(chunks)
        self.chunk_size = chunks[0].size

    def __len__(self) -> int:
        return self.chunk_size * len(self.chunks)

    def __getitem__(self, index: int):
        chunk, offset = divmod(index, self.chunk_size)
        return self.chunks[chunk].primary.data[offset]


def _pivot_for(config: P2PConfig, left: _ConcatView, right: _ConcatView) -> int:
    if config.leftmost_pivot:
        return select_pivot(left, right)
    pivot = select_pivot_paper(left, right)
    if not is_valid_pivot(left, right, pivot):
        # Algorithm 1 as printed can miss under heavy duplication; fall
        # back to the verified leftmost pivot (documented deviation).
        pivot = select_pivot(left, right)
    return pivot


def _serialized_swap(machine: Machine, left: Chunk, right: Chunk,
                     pivot: int, spawn, check):
    """In-place-style swap for the ablation: staged, serialized copies."""
    from repro.runtime.kernels import merge_two_on_device

    n = left.size
    keep_left = n - pivot
    if pivot == 0:
        return 0.0
    # Stage left's tail in left's aux, then the two P2P legs one after
    # the other (no bidirectional overlap), then merge.
    legs = [(left.aux, left.primary, right.primary)]
    bytes_moved = 2.0 * pivot * left.primary.dtype.itemsize * machine.scale
    if left.has_values:
        legs.append((left.value_aux, left.value_primary,
                     right.value_primary))
        bytes_moved += (2.0 * pivot * left.value_primary.dtype.itemsize
                        * machine.scale)
    for aux, left_buf, right_buf in legs:
        yield from copy_async(machine, span(aux, 0, pivot),
                              span(left_buf, keep_left, n), phase="Merge")
        yield from copy_async(machine, span(left_buf, keep_left, n),
                              span(right_buf, 0, pivot), phase="Merge")
        yield from copy_async(machine, span(right_buf, 0, pivot),
                              span(aux, 0, pivot), phase="Merge")
    if pivot < n:
        env = machine.env
        merges = [
            spawn(merge_two_on_device(
                machine, span(left.primary, 0, n), keep_left, phase="Merge",
                values=span(left.value_primary, 0, n)
                if left.has_values else None)),
            spawn(merge_two_on_device(
                machine, span(right.primary, 0, n), pivot, phase="Merge",
                values=span(right.value_primary, 0, n)
                if right.has_values else None)),
        ]
        yield env.all_of(merges)
        check()
    return bytes_moved


def merge_chunks(machine: Machine, chunks: List[Chunk],
                 config: P2PConfig, stats: P2PStats, spawn, check):
    """Algorithm 2: recursive merge of ``len(chunks)`` sorted chunks.

    ``spawn``/``check`` thread the supervision seam down the recursion
    and into the swaps (see :func:`repro.sort.swap.swap_and_merge_pair`).
    """
    g = len(chunks)
    if g < 2:
        return
    env = machine.env
    half = g // 2
    left_chunks, right_chunks = chunks[:half], chunks[half:]

    if g > 2:
        pre = [spawn(merge_chunks(machine, left_chunks, config, stats,
                                  spawn, check)),
               spawn(merge_chunks(machine, right_chunks, config, stats,
                                  spawn, check))]
        yield env.all_of(pre)
        check()

    left = _ConcatView(left_chunks)
    right = _ConcatView(right_chunks)
    # O(log n) remote reads for the binary search (Section 5.2: ~0.03%
    # of total time; we charge two probes per bisection step).
    probes = 2 * max(1, math.ceil(math.log2(len(left) + 1)))
    yield env.timeout(probes * PIVOT_PROBE_LATENCY_S)
    check()
    pivot = _pivot_for(config, left, right)
    stats.pivots.append(pivot)

    if pivot > 0:
        chunk_size = chunks[0].size
        sizes = block_swap_sizes(pivot, chunk_size, half)
        swaps = []
        for m, size in enumerate(sizes):
            if size == 0:
                continue
            pair_left = chunks[half - 1 - m]
            pair_right = chunks[half + m]
            if config.out_of_place_swap:
                op = swap_and_merge_pair(machine, pair_left, pair_right,
                                         size, multihop=config.multihop,
                                         spawn=spawn, check=check)
            else:
                op = _serialized_swap(machine, pair_left, pair_right, size,
                                      spawn=spawn, check=check)
            swaps.append(spawn(op))
        if swaps:
            done = yield env.all_of(swaps)
            check()
            # Shielded swap tasks resolve to ``None`` when they failed
            # mid-flight; their bytes never fully moved.
            stats.p2p_bytes += sum(v for v in done.values() if v)

    if g > 2:
        post = [spawn(merge_chunks(machine, left_chunks, config, stats,
                                   spawn, check)),
                spawn(merge_chunks(machine, right_chunks, config, stats,
                                   spawn, check))]
        yield env.all_of(post)
        check()


def _pad(keys: np.ndarray, n: int,
         values: Optional[np.ndarray] = None) -> None:
    """Fill ``keys[n:]`` (and ``values[n:]``) with copies of a maximal record.

    Maximal in NumPy's sort order (NaNs last), so no real key sorts
    after a pad.  The pads start as the last records of the last chunk
    and stay there: a pivot swap never moves them (every key ties with
    or precedes a pad, so the pivot stops at the first one), and every
    merge keeps ties in the first run while the pads' run comes second.
    The first ``n`` sorted records are therefore the real ones, bit for
    bit.
    """
    if keys.size == n:
        return
    top = int(np.argmax(keys[:n]))
    keys[n:] = keys[top:top + 1]
    if values is not None:
        values[n:] = values[top:top + 1]


# -- the steps of the pipeline, shared by every P2P and HET runner ------------
def merge_stages(g: int) -> int:
    """Sequential merge-stage depth of ``g`` chunks: pairwise stages
    surround each higher-level global stage (3 for four GPUs, Figure 9)."""
    return 2 * int(math.log2(g)) - 1 if g > 1 else 0


def check_fits(machine: Machine, gpu_ids: Sequence[int], chunk: int,
               record_bytes: int) -> None:
    """Raise :class:`SortError` unless every GPU holds two buffers
    (primary + auxiliary) of ``chunk`` records of ``record_bytes``."""
    need = 2 * chunk * record_bytes * machine.scale
    for gpu_id in gpu_ids:
        device = machine.device(gpu_id)
        if need > device.capacity_logical:
            raise SortError(
                f"{device.name}: chunk of {chunk} keys needs "
                f"{need / 1e9:.1f} GB (primary + auxiliary buffer), "
                f"exceeding {device.capacity_logical / 1e9:.1f} GB; "
                "use HET sort for out-of-core data or more GPUs")


def padded_staging(machine: Machine, keys: np.ndarray, size: int, numa: int,
                   pinned: bool, values: Optional[np.ndarray] = None,
                   take=np.empty):
    """Stage ``keys`` (and ``values``) in host memory as ``size`` records.

    Returns ``(staging, value_staging)`` host buffers.  Records that
    fill ``size`` are staged in place; otherwise ``take(size, dtype)``
    supplies arrays that hold them followed by pads (:func:`_pad`).
    """
    arrays = [keys] if values is None else [keys, values]
    n = len(keys)
    if size != n:
        padded = []
        for array in arrays:
            padded.append(take(size, array.dtype))
            padded[-1][:n] = array
        _pad(padded[0], n, padded[1] if values is not None else None)
        arrays = padded
    staged = [machine.host_buffer(array, numa=numa, pinned=pinned)
              for array in arrays]
    return staged[0], staged[1] if values is not None else None


def _legs(chunks: Sequence[Chunk], spans: Sequence[Span],
          value_spans: Optional[Sequence[Span]],
          sizes: Optional[Sequence[int]]):
    """``(device span, host span)`` of every chunk, keys then payloads;
    chunk ``i``'s device span is its first ``sizes[i]`` records
    (default: the whole buffer)."""
    for i, c in enumerate(chunks):
        size = sizes[i] if sizes is not None else None
        yield span(c.primary, 0, size), spans[i]
        if c.has_values:
            yield span(c.value_primary, 0, size), value_spans[i]


def copy_in(machine: Machine, chunks: Sequence[Chunk],
            sources: Sequence[Span], spawn,
            value_sources: Optional[Sequence[Span]] = None,
            sizes: Optional[Sequence[int]] = None) -> list:
    """Spawn chunk ``i``'s HtoD copies from ``sources[i]`` (and
    ``value_sources[i]``) into its first ``sizes[i]`` records (default:
    the whole chunk); returns the processes."""
    return [spawn(copy_async(machine, device, source, phase="HtoD"))
            for device, source in _legs(chunks, sources, value_sources,
                                        sizes)]


def sort_chunk(machine: Machine, chunk: Chunk, primitive: str,
               size: Optional[int] = None, scratch: bool = False):
    """Process: sort the first ``size`` records (default: all) of one
    chunk (and its payloads) on its GPU.

    ``scratch=True`` lends the kernel the chunk's auxiliary buffers as
    temp storage; only a caller that knows them dead may pass it (the
    P2P local sort does; a HET lane's second buffer may hold an HtoD in
    flight).
    """
    values = value_scratch = None
    if chunk.has_values:
        values = span(chunk.value_primary, 0, size)
        if scratch:
            value_scratch = span(chunk.value_aux, 0, size)
    return sort_on_device(
        machine, span(chunk.primary, 0, size), primitive=primitive,
        phase="Sort", values=values,
        scratch=span(chunk.aux, 0, size) if scratch else None,
        value_scratch=value_scratch)


def copy_out(machine: Machine, chunks: Sequence[Chunk],
             outputs: Sequence[Span], spawn,
             value_outputs: Optional[Sequence[Span]] = None,
             sizes: Optional[Sequence[int]] = None) -> list:
    """Spawn chunk ``i``'s DtoH copies of its first ``sizes[i]`` records
    (default: the whole chunk) into ``outputs[i]`` (and
    ``value_outputs[i]``); returns the processes."""
    return [spawn(copy_async(machine, output, device, phase="DtoH"))
            for device, output in _legs(chunks, outputs, value_outputs,
                                        sizes)]


def p2p_pipeline(machine: Machine, gpu_ids: Sequence[int],
                 sources: Sequence[Span], outputs: Sequence[Span],
                 config: P2PConfig, stats: P2PStats,
                 value_sources: Optional[Sequence[Span]] = None,
                 value_outputs: Optional[Sequence[Span]] = None,
                 spawn=None, check=None):
    """Process: the P2P sort of one GPU set (steps 1-4 of Algorithm 2).

    GPU ``gpu_ids[i]`` copies ``sources[i]`` (and ``value_sources[i]``)
    in, every GPU sorts its chunk, :func:`merge_chunks` merges the
    chunks, and GPU ``i``'s sorted chunk lands in ``outputs[i]`` (and
    ``value_outputs[i]``).  All spans have one length, the chunk size;
    chunks of size 0 have nothing to sort.  ``spawn``/``check`` are the
    supervision seam of :func:`merge_chunks`.  The device buffers are
    freed on every exit, so a replanned run never inherits a failed
    one's allocations.
    """
    chunk = len(sources[0])
    if chunk == 0:
        return
    env = machine.env
    spawn = spawn or env.process
    check = check or _no_check
    value_dtype = (value_sources[0].buffer.data.dtype
                   if value_sources is not None else None)
    chunks: List[Chunk] = []
    try:
        for gpu_id in gpu_ids:
            chunks.append(Chunk.alloc(machine.device(gpu_id), chunk,
                                       sources[0].buffer.data.dtype,
                                       value_dtype))
        yield env.all_of(copy_in(machine, chunks, sources, spawn,
                                 value_sources))
        check()
        yield env.all_of([spawn(sort_chunk(machine, c, config.primitive,
                                           scratch=True))
                          for c in chunks])
        check()
        yield from merge_chunks(machine, chunks, config, stats,
                                spawn=spawn, check=check)
        yield env.all_of(copy_out(machine, chunks, outputs, spawn,
                                  value_outputs))
        check()
    finally:
        for c in chunks:
            c.free()


def p2p_sort(machine: Machine, data: Union[np.ndarray, HostBuffer],
             gpu_ids: Optional[Sequence[int]] = None,
             config: Optional[P2PConfig] = None,
             values: Optional[np.ndarray] = None,
             resilience: Optional[ResiliencePolicy] = None) -> SortResult:
    """Sort ``data`` across GPUs with the P2P algorithm; returns the result.

    ``data`` may be a NumPy array (wrapped as a pinned buffer on NUMA
    node 0, the paper's setup) or an existing :class:`HostBuffer`.
    ``gpu_ids`` is an *ordered* GPU set of power-of-two size; it
    defaults to the platform's paper-faithful choice.  The input is not
    modified; the sorted keys are in ``result.output``.

    Pass ``values`` (one payload per key) to sort records: payloads
    travel with their keys through every copy, swap and merge —
    doubling or tripling the transfer volume depending on the payload
    width — and come back in ``result.output_values``.

    ``resilience`` overrides the machine's policy *for this call only*
    (the machine's own policy is restored on exit, error paths
    included).  The sort is the supervised sort with nothing installed
    (no checkpoint, speculation or deadline), so failed or badly
    straggling GPUs, at planning time or mid-run, are dropped and the
    chunks re-planned over the largest power-of-two prefix of the
    survivors; recovery work is reported on the result.
    """
    from repro.recovery.supervisor import plain_sort

    return plain_sort(machine, "p2p", data, gpu_ids, values, resilience,
                      p2p_config=config)
