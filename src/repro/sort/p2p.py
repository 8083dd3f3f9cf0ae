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
from repro.runtime.buffer import DeviceBuffer, HostBuffer, default_pool
from repro.runtime.context import Machine
from repro.runtime.kernels import sort_on_device
from repro.runtime.memcpy import copy_async, span
from repro.sort.gpu_set import surviving_gpu_ids
from repro.sort.pivot import is_valid_pivot, select_pivot, select_pivot_paper
from repro.sort.result import SortResult
from repro.sort.swap import block_swap_sizes, swap_and_merge_pair
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
    pivot_probe_latency_s: float = 2 * US


@dataclass
class _Stats:
    p2p_bytes: float = 0.0
    stages: int = 0
    pivots: List[int] = field(default_factory=list)


class _Chunk:
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

    def all_buffers(self):
        """Every allocated buffer (for freeing)."""
        buffers = [self.primary, self.aux]
        if self.has_values:
            buffers += [self.value_primary, self.value_aux]
        return buffers


class _ConcatView:
    """Read-only view of several equal chunks as one sorted array.

    Pivot selection reads single elements across the chunk group; on
    real hardware those are remote P2P reads.
    """

    def __init__(self, chunks: Sequence[_Chunk]):
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


def _no_check() -> None:
    """Default ``check``: unsupervised runs have no failure to stop on."""


def _serialized_swap(machine: Machine, left: _Chunk, right: _Chunk,
                     pivot: int, spawn=None, check=None):
    """In-place-style swap for the ablation: staged, serialized copies."""
    from repro.runtime.kernels import merge_two_on_device

    if spawn is None:
        spawn = machine.env.process
    if check is None:
        check = _no_check
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


def _merge_chunks(machine: Machine, chunks: List[_Chunk],
                  config: P2PConfig, stats: _Stats, spawn=None, check=None):
    """Algorithm 2: recursive merge of ``len(chunks)`` sorted chunks.

    ``spawn``/``check`` thread the supervision seam down the recursion
    and into the swaps (see :func:`repro.sort.swap.swap_and_merge_pair`);
    unset, the merge runs exactly as before supervision existed.
    """
    g = len(chunks)
    if g < 2:
        return
    env = machine.env
    if spawn is None:
        spawn = env.process
    if check is None:
        check = _no_check
    half = g // 2
    left_chunks, right_chunks = chunks[:half], chunks[half:]

    if g > 2:
        pre = [spawn(_merge_chunks(machine, left_chunks, config, stats,
                                   spawn, check)),
               spawn(_merge_chunks(machine, right_chunks, config, stats,
                                   spawn, check))]
        yield env.all_of(pre)
        check()

    left = _ConcatView(left_chunks)
    right = _ConcatView(right_chunks)
    # O(log n) remote reads for the binary search (Section 5.2: ~0.03%
    # of total time; we charge two probes per bisection step).
    probes = 2 * max(1, math.ceil(math.log2(len(left) + 1)))
    yield env.timeout(probes * config.pivot_probe_latency_s)
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
        post = [spawn(_merge_chunks(machine, left_chunks, config, stats,
                                    spawn, check)),
                spawn(_merge_chunks(machine, right_chunks, config, stats,
                                    spawn, check))]
        yield env.all_of(post)
        check()


def _pad_value(dtype: np.dtype):
    if dtype.kind == "f":
        return np.finfo(dtype).max
    return np.iinfo(dtype).max


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
    included).  On a machine with an installed fault plan, failed or
    badly straggling GPUs are dropped and the chunks re-planned over
    the largest power-of-two prefix of the survivors; recovery work
    (retries, re-routes, downtime) is reported on the result.
    """
    saved_policy = machine.resilience
    if resilience is not None:
        machine.resilience = resilience
    try:
        return _p2p_sort(machine, data, gpu_ids, config, values)
    finally:
        machine.resilience = saved_policy


def _p2p_sort(machine: Machine, data: Union[np.ndarray, HostBuffer],
              gpu_ids: Optional[Sequence[int]],
              config: Optional[P2PConfig],
              values: Optional[np.ndarray]) -> SortResult:
    config = config or P2PConfig()
    if isinstance(data, HostBuffer):
        host_in = data
    else:
        host_in = machine.host_buffer(np.asarray(data))
    n = len(host_in.data)
    if n == 0:
        raise SortError("cannot sort an empty array")
    host_values = None
    if values is not None:
        values = np.asarray(values)
        if len(values) != n:
            raise SortError(
                f"{len(values)} values for {n} keys")
        host_values = machine.host_buffer(values, numa=host_in.numa,
                                          pinned=host_in.pinned)

    ids = tuple(gpu_ids) if gpu_ids is not None else None
    if ids is None:
        count = min(machine.num_gpus, 1 << int(math.log2(machine.num_gpus)))
        ids = machine.spec.preferred_gpu_set(count)
    excluded = ()
    if machine.faults is not None:
        survivors, excluded = surviving_gpu_ids(machine, ids)
        if not survivors:
            raise SortError(
                f"no healthy GPUs left in {ids}: all failed or "
                "straggling past the exclusion factor")
        if excluded:
            # Re-plan over the largest power-of-two prefix of the
            # survivors (the merge needs 2^k chunks; order preserved).
            keep = 1 << int(math.log2(len(survivors)))
            ids = tuple(survivors[:keep])
    g = len(ids)
    if g & (g - 1):
        raise SortError(f"P2P sort needs a power-of-two GPU count, got {g}")
    if len(set(ids)) != g:
        raise SortError(f"duplicate GPU ids in {ids}")

    dtype = host_in.dtype
    chunk = -(-n // g)
    padded = chunk * g
    itemsize = dtype.itemsize
    value_itemsize = host_values.dtype.itemsize if host_values else 0
    for gpu_id in ids:
        need = 2 * chunk * (itemsize + value_itemsize) * machine.scale
        device = machine.device(gpu_id)
        if need > device.capacity_logical:
            raise SortError(
                f"{device.name}: chunk of {chunk} keys needs "
                f"{need / 1e9:.1f} GB (primary + auxiliary buffer), "
                f"exceeding {device.capacity_logical / 1e9:.1f} GB; "
                "use HET sort for out-of-core data")

    staging = host_in
    value_staging = host_values
    pad_record = None
    # Padded staging arrays are pure scratch — dead once the HtoD copies
    # have run — so they come from the workspace pool instead of fresh
    # allocations and go back after the run.
    borrowed: List[np.ndarray] = []
    if padded != n:
        padded_data = default_pool.take(padded, dtype)
        borrowed.append(padded_data)
        padded_data[:n] = host_in.data
        if host_values is None:
            # Key-only padding: dtype-max sentinels sort to the tail.
            padded_data[n:] = _pad_value(dtype)
        else:
            # Key-value padding duplicates a real maximal record so the
            # pads are indistinguishable from (and interchangeable
            # with) a genuine record; the extras are dropped after the
            # sort without disturbing any real payload.
            pad_index = int(np.argmax(host_in.data))
            pad_record = (host_in.data[pad_index],
                          host_values.data[pad_index])
            padded_data[n:] = pad_record[0]
            padded_values = default_pool.take(padded, host_values.dtype)
            borrowed.append(padded_values)
            padded_values[:n] = host_values.data
            padded_values[n:] = pad_record[1]
            value_staging = machine.host_buffer(
                padded_values, numa=host_in.numa, pinned=host_in.pinned)
        staging = machine.host_buffer(padded_data, numa=host_in.numa,
                                      pinned=host_in.pinned)
    host_out = machine.host_buffer(np.empty(padded, dtype=dtype),
                                   numa=staging.numa, pinned=staging.pinned)
    values_out = None
    if host_values is not None:
        values_out = machine.host_buffer(
            np.empty(padded, dtype=host_values.dtype),
            numa=staging.numa, pinned=staging.pinned)

    # Input placement (Section 7 / repro.sort.placement): the paper's
    # default keeps everything on node 0; "numa-local" stages each
    # GPU's chunk (and payloads) on the GPU's own node.
    from repro.sort import placement as pl

    if config.input_placement not in (pl.NODE0, pl.NUMA_LOCAL):
        raise SortError(
            f"unknown input_placement {config.input_placement!r}")
    ranges = [(i * chunk, (i + 1) * chunk) for i in range(g)]
    placed = pl.place_chunks(machine, staging, ids, ranges,
                             placement=config.input_placement)
    placed_values = None
    if host_values is not None:
        placed_values = pl.place_chunks(machine, value_staging, ids,
                                        ranges,
                                        placement=config.input_placement)
    out_buffers = [pl.output_buffer_for(machine, gpu_id, chunk, dtype,
                                        config.input_placement,
                                        staging.numa)
                   for gpu_id in ids]
    out_value_buffers = None
    if host_values is not None:
        out_value_buffers = [pl.output_buffer_for(
            machine, gpu_id, chunk, host_values.dtype,
            config.input_placement, staging.numa) for gpu_id in ids]

    stats = _Stats()
    start = machine.env.now
    stats_before = machine.resilience_stats.snapshot()
    # With observability on, bracket the run in a root span: every
    # phase span recorded inside becomes its child, so the timeline
    # nests sort -> phase -> flows.  Off, no span is added and the
    # trace stays bit-identical to the pre-observability engine.
    root_id = None
    if machine.obs is not None:
        root_id = machine.trace.allocate_id()
        machine.trace.push_parent(root_id)

    def run():
        env = machine.env
        if (config.input_placement == pl.NUMA_LOCAL
                and config.charge_redistribution):
            yield from pl.redistribute(machine, staging, placed)
            if placed_values is not None:
                yield from pl.redistribute(machine, value_staging,
                                           placed_values)
        chunks: List[_Chunk] = []
        for gpu_id in ids:
            device = machine.device(gpu_id)
            primary = device.alloc(chunk, dtype, label=f"chunk{gpu_id}")
            aux = device.alloc(chunk, dtype, label=f"aux{gpu_id}")
            value_primary = value_aux = None
            if host_values is not None:
                value_primary = device.alloc(chunk, host_values.dtype,
                                             label=f"vals{gpu_id}")
                value_aux = device.alloc(chunk, host_values.dtype,
                                         label=f"vaux{gpu_id}")
            chunks.append(_Chunk(device, primary, aux,
                                 value_primary, value_aux))

        htod = []
        for i, c in enumerate(chunks):
            htod.append(env.process(copy_async(
                machine, span(c.primary),
                span(placed[i].staging), phase="HtoD")))
            if c.has_values:
                htod.append(env.process(copy_async(
                    machine, span(c.value_primary),
                    span(placed_values[i].staging), phase="HtoD")))
        yield env.all_of(htod)

        sorts = [env.process(sort_on_device(
            machine, span(c.primary), primitive=config.primitive,
            phase="Sort",
            values=span(c.value_primary) if c.has_values else None))
            for c in chunks]
        yield env.all_of(sorts)

        yield from _merge_chunks(machine, chunks, config, stats)

        dtoh = []
        for i, c in enumerate(chunks):
            dtoh.append(env.process(copy_async(
                machine, span(out_buffers[i]),
                span(c.primary), phase="DtoH")))
            if c.has_values:
                dtoh.append(env.process(copy_async(
                    machine, span(out_value_buffers[i]),
                    span(c.value_primary), phase="DtoH")))
        yield env.all_of(dtoh)

        for c in chunks:
            for buffer in c.all_buffers():
                buffer.free()

    try:
        machine.run(run())
    finally:
        if root_id is not None:
            machine.trace.pop_parent()
            machine.trace.record("P2PSort", "sort", start,
                                 bytes=n * itemsize * machine.scale,
                                 id=root_id)
        for array in borrowed:
            default_pool.give(array)
    # Assemble the full output array (with numa-local placement the
    # sorted slices physically live on both nodes; this view is for the
    # caller's convenience and is not charged).
    for i in range(g):
        host_out.data[i * chunk:(i + 1) * chunk] = out_buffers[i].data
        if values_out is not None:
            values_out.data[i * chunk:(i + 1) * chunk] = \
                out_value_buffers[i].data
    duration = machine.env.now - start
    output = host_out.data[:n]
    output_values = values_out.data[:n] if values_out is not None else None
    if pad_record is not None:
        # Drop the duplicated pad records (any copies are equivalent).
        keys_all = host_out.data
        vals_all = values_out.data
        duplicates = np.flatnonzero((keys_all == pad_record[0])
                                    & (vals_all == pad_record[1]))
        keep = np.ones(padded, dtype=bool)
        keep[duplicates[-(padded - n):]] = False
        output = keys_all[keep]
        output_values = vals_all[keep]

    recovery = machine.resilience_stats.delta(stats_before)
    fault_downtime = (machine.faults.downtime_between(start, machine.env.now)
                      if machine.faults is not None else 0.0)
    degraded = bool(excluded or recovery.retries or recovery.reroutes
                    or recovery.timeouts or fault_downtime > 0.0)

    phases = {name: value for name, value in
              machine.trace.phase_durations().items()
              if name in ("Redistribute", "HtoD", "Sort", "Merge", "DtoH")}
    return SortResult(
        algorithm="p2p",
        system=machine.spec.name,
        gpu_ids=ids,
        physical_keys=n,
        logical_keys=n * machine.scale,
        dtype=str(dtype),
        duration=duration,
        phase_durations=phases,
        p2p_bytes=stats.p2p_bytes,
        # Sequential merge-stage depth: pairwise stages surround each
        # higher-level global stage (3 for four GPUs, Figure 9).
        merge_stages=2 * int(math.log2(g)) - 1 if g > 1 else 0,
        pivots=tuple(stats.pivots),
        output=output,
        output_values=output_values,
        degraded=degraded,
        retries=recovery.retries,
        reroutes=recovery.reroutes,
        timeouts=recovery.timeouts,
        fault_downtime=fault_downtime,
        excluded_gpus=excluded,
    )
