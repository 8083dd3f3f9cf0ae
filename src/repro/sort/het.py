"""HET sort: heterogeneous multi-GPU sorting (Section 5.3).

The GPUs sort fixed-size chunks; the CPU produces the globally sorted
output with a multiway merge.  Unlike P2P sort, HET sort is not limited
by the combined GPU memory: it streams *chunk groups* (one chunk per
GPU at a time) through the devices, so the only capacity bound is host
memory.

Pipelining strategies for out-of-core data (both implemented, compared
in Figure 15a):

* **2n approach** (this paper's contribution): two chunk-sized buffers
  per GPU.  Copies and compute alternate — after both transfer legs of
  a step complete, the GPU sorts with the second buffer as the sort's
  auxiliary memory.  Bigger chunks, fewer sublists for the final merge.
* **3n approach** (Stehle et al.): three smaller buffers; sorting chunk
  ``i`` overlaps with copying sorted chunk ``i-1`` out and chunk
  ``i+1`` in (an in-place transfer swap on the third buffer).

**Eager merging** (Gowanlock et al.) optionally merges each completed
chunk group on the CPU while the GPUs process the next one; Figure 15a
shows it *hurts* on modern systems because the CPU merge is slower than
the GPUs and competes with the copies for host memory bandwidth — both
effects emerge from the shared-resource model here.

Key-value sorting: pass ``values`` to carry one payload per key through
the pipelines and the CPU merge; payload bytes add to every transfer
and compute volume.

Every chunk chain, in every pipeline, runs one set of steps: P2P sort's
:func:`~repro.sort.p2p.copy_in`, :func:`~repro.sort.p2p.sort_chunk` and
:func:`~repro.sort.p2p.copy_out` over the first ``task.size`` records
of a :class:`~repro.sort.p2p.Chunk` (:func:`copy_tasks_in` and
:func:`copy_tasks_out` map a :class:`ChunkTask`'s host ranges onto
them).  The 2n loop exists once, :func:`_grouped_pipeline`: a per-GPU
2n pipeline is that loop over one lane, and GPU-merged groups run it
over all GPUs in lockstep.  The 3n pipeline keeps its own overlap
structure.  The supervised driver (:mod:`repro.recovery.het_run`)
runs the same steps over the same :func:`plan_chunks` plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SortError
from repro.faults.policy import ResiliencePolicy
from repro.runtime.buffer import HostBuffer, default_pool
from repro.runtime.context import Machine
from repro.runtime.cpu_ops import cpu_multiway_merge
from repro.runtime.memcpy import span
from repro.runtime.stream import Stream
from repro.sort.gpu_set import plan_gpu_set
from repro.sort.p2p import (Chunk, P2PConfig, P2PStats, copy_in, copy_out,
                            merge_chunks, sort_chunk)
from repro.sort.result import SortRecord, SortResult, stage_input


#: Fraction of each GPU's memory usable for the chunk buffers (Figure
#: 15a uses 33 GB of the A100's 40 GB).
MEMORY_BUDGET = 0.825


@dataclass
class HetConfig:
    """Tunables of the HET sort (defaults follow the paper)."""

    #: Single-GPU sort primitive (Table 2).
    primitive: str = "thrust"
    #: Pipelining strategy for out-of-core data: ``"2n"`` or ``"3n"``.
    approach: str = "2n"
    #: Merge completed chunk groups eagerly while the GPUs keep sorting.
    eager_merge: bool = False
    #: P2P-merge each chunk group on the GPUs before returning it, so
    #: the final CPU merge sees one run per *group* instead of one per
    #: chunk (Section 7: "future research should evaluate the
    #: suitability of a P2P-based GPU merge for large data").  Requires
    #: the 2n approach and a power-of-two GPU count; incompatible with
    #: eager merging (the group runs are already merged).
    gpu_merge_groups: bool = False

    def buffers_per_gpu(self) -> int:
        """Number of chunk-sized device buffers the approach needs."""
        if self.gpu_merge_groups:
            if self.approach != "2n":
                raise SortError(
                    "gpu_merge_groups needs the 2n approach (the P2P "
                    "merge uses the second buffer as swap space)")
            if self.eager_merge:
                raise SortError(
                    "gpu_merge_groups and eager_merge are mutually "
                    "exclusive: group runs come back already merged")
        if self.approach == "2n":
            return 2
        if self.approach == "3n":
            return 3
        raise SortError(f"unknown approach {self.approach!r} "
                        "(expected '2n' or '3n')")


@dataclass
class ChunkTask:
    """One chunk: its host input range and its sorted output runs."""

    index: int
    group: int
    src_start: int
    src_stop: int
    run: np.ndarray                         # host staging for sorted keys
    value_run: Optional[np.ndarray] = None  # host staging for payloads

    @property
    def size(self) -> int:
        return self.src_stop - self.src_start


def plan_chunks(n: int, g: int,
                chunk_capacity: int) -> Tuple[List[List[int]], int]:
    """Split ``n`` keys into per-group chunk sizes.

    Returns the sizes and the capacity the chunk buffers need.  Every
    group has ``g`` chunks (the last group may have fewer); all chunks
    except the final one have the plan's largest size, which is that
    capacity.  So every group of ``g > 1`` equal chunks fills the
    buffers exactly.
    """
    if chunk_capacity < 1:
        raise SortError("GPU memory budget too small for any chunk")
    groups_needed = -(-n // (chunk_capacity * g))
    # Use the smallest equal chunk size that fits the group count, so
    # chunks stay balanced across GPUs (paper: equally sized chunks).
    chunk = -(-n // (groups_needed * g))
    sizes: List[List[int]] = []
    remaining = n
    while remaining > 0:
        group = []
        for _ in range(g):
            take = min(chunk, remaining)
            if take == 0:
                break
            group.append(take)
            remaining -= take
        sizes.append(group)
    return sizes, chunk


def chunk_capacity_for(machine: Machine, devices, config: HetConfig,
                       dtype, value_dtype, n: int) -> int:
    """Largest chunk (elements) the HET pipelines' buffers may hold.

    The memory budget governs the out-of-core streaming chunk size
    (Figure 15a reserves 33 of the A100's 40 GB); in-core data gets one
    chunk of ``n/g`` keys per GPU when the device can hold it with the
    approach's buffer count.  Shared by :func:`het_sort` and the
    supervised HET driver so both plan identical chunks.
    """
    capacity = min(d.capacity_logical for d in devices)
    buffers = config.buffers_per_gpu()
    record_bytes = dtype.itemsize + (value_dtype.itemsize
                                     if value_dtype else 0)
    per_record_logical = record_bytes * machine.scale
    chunk_capacity = int(capacity * MEMORY_BUDGET
                         / buffers / per_record_logical)
    per_gpu_need = -(-n // len(devices))
    if per_gpu_need * buffers * per_record_logical <= capacity:
        chunk_capacity = max(chunk_capacity, per_gpu_need)
    return chunk_capacity


def copy_tasks_in(machine: Machine, chunks: Sequence[Chunk],
                  tasks: Sequence[ChunkTask], staging: HostBuffer,
                  value_staging: Optional[HostBuffer], spawn) -> list:
    """:func:`~repro.sort.p2p.copy_in` of each task's input range (keys,
    and payloads with ``value_staging``) onto its chunk, ``chunks[i]``
    for ``tasks[i]``."""
    def sources(buffer):
        return [span(buffer, task.src_start, task.src_stop)
                if buffer is not None else None for task in tasks]
    return copy_in(machine, chunks[:len(tasks)], sources(staging), spawn,
                   sources(value_staging), [task.size for task in tasks])


def copy_tasks_out(machine: Machine, chunks: Sequence[Chunk],
                   tasks: Sequence[ChunkTask], numa: int, spawn) -> list:
    """:func:`~repro.sort.p2p.copy_out` of each task's chunk,
    ``chunks[i]`` for ``tasks[i]``, into its host runs on NUMA node
    ``numa``."""
    def outputs(runs):
        return [span(HostBuffer(run, numa=numa)) if run is not None
                else None for run in runs]
    return copy_out(machine, chunks[:len(tasks)],
                    outputs(task.run for task in tasks), spawn,
                    outputs(task.value_run for task in tasks),
                    [task.size for task in tasks])


def _grouped_pipeline(machine: Machine, devices,
                      groups: Sequence[Sequence[ChunkTask]],
                      merged: Container[int], staging: HostBuffer,
                      value_staging: Optional[HostBuffer], primitive: str,
                      capacity: int, on_chunk_done):
    """The 2n pipeline: one lane per device steps through ``groups``.

    Every lane holds one :class:`~repro.sort.p2p.Chunk`, and every group
    has at most one task per lane.  Each step overlaps the DtoH copies
    of group ``k-1`` with the HtoD copies of group ``k`` into the other
    buffer of each chunk; the sorts then block the copies, the other
    buffer serving as the sort's auxiliary memory (Figure 11).  A group
    whose index is in ``merged`` (uniform, so it fills the buffers) is
    P2P-merged on the devices before it returns: the merge phase of the
    P2P sort, verbatim.  Over one lane this is the per-GPU 2n pipeline.
    The device buffers are freed on every exit.
    """
    env = machine.env
    spawn = env.process
    value_dtype = value_staging.dtype if value_staging is not None else None
    merge_config = P2PConfig(primitive=primitive)
    chunks: List[Chunk] = []
    try:
        for device in devices:
            chunks.append(Chunk.alloc(device, capacity, staging.dtype,
                                      value_dtype))
        previous: Sequence[ChunkTask] = ()
        for group in groups:
            lanes = chunks[:len(group)]
            copies = copy_tasks_out(machine, chunks, previous, staging.numa,
                                    spawn)
            for chunk in lanes:
                chunk.flip_buffers()
            copies += copy_tasks_in(machine, lanes, group, staging,
                                    value_staging, spawn)
            yield env.all_of(copies)
            for task in previous:
                on_chunk_done(task)
            yield env.all_of([spawn(sort_chunk(machine, chunk, primitive,
                                               task.size))
                              for task, chunk in zip(group, lanes)])
            if group[0].group in merged:
                yield from merge_chunks(machine, chunks, merge_config,
                                        P2PStats())
            previous = group
        yield env.all_of(copy_tasks_out(machine, chunks, previous,
                                        staging.numa, spawn))
        for task in previous:
            on_chunk_done(task)
    finally:
        for chunk in chunks:
            chunk.free()


def _pipeline_3n(machine: Machine, device, tasks: Sequence[ChunkTask],
                 staging: HostBuffer, value_staging: Optional[HostBuffer],
                 primitive: str, capacity: int, on_chunk_done):
    """Per-GPU 3n pipeline: sorting overlaps the in-place transfer swap.

    A :class:`~repro.sort.p2p.Chunk`'s two buffers alternate, and a
    third allocation is the sort's auxiliary memory: while chunk ``i``
    sorts in the primary buffer, the other one streams chunk ``i-1``
    out and chunk ``i+1`` in (Figure 10).  The device buffers are freed
    on every exit.
    """
    env = machine.env
    spawn = env.process
    dtypes = [staging.dtype]
    if value_staging is not None:
        dtypes.append(value_staging.dtype)
    chunk = Chunk.alloc(device, capacity, *dtypes)
    sort_aux = []
    try:
        for dtype in dtypes:
            sort_aux.append(device.alloc(capacity, dtype,
                                         label=f"saux{device.id}"))
        yield env.all_of(copy_tasks_in(machine, [chunk], tasks[:1], staging,
                                       value_staging, spawn))
        for step, task in enumerate(tasks):
            ops = [spawn(sort_chunk(machine, chunk, primitive, task.size))]
            chunk.flip_buffers()
            ops += copy_tasks_out(machine, [chunk], tasks[step - 1:step],
                                  staging.numa, spawn)
            ops += copy_tasks_in(machine, [chunk], tasks[step + 1:step + 2],
                                 staging, value_staging, spawn)
            yield env.all_of(ops)
            if step:
                on_chunk_done(tasks[step - 1])
        chunk.flip_buffers()
        yield env.all_of(copy_tasks_out(machine, [chunk], tasks[-1:],
                                        staging.numa, spawn))
        on_chunk_done(tasks[-1])
    finally:
        chunk.free()
        for buffer in sort_aux:
            buffer.free()


def het_sort(machine: Machine, data: Union[np.ndarray, HostBuffer],
             gpu_ids: Optional[Sequence[int]] = None,
             config: Optional[HetConfig] = None,
             values: Optional[np.ndarray] = None,
             resilience: Optional[ResiliencePolicy] = None) -> SortResult:
    """Sort ``data`` with the heterogeneous algorithm; returns the result.

    Handles both in-core data (one chunk group; the 2n and 3n
    approaches coincide, Section 6.1) and out-of-core data (multiple
    chunk groups streamed through the GPUs).  The GPU set order does
    not matter for HET sort (Section 5.4), only its membership.

    Pass ``values`` for key-value records; sorted payloads come back in
    ``result.output_values``.

    ``resilience`` overrides the machine's policy *for this call only*
    (the machine's own policy is restored on exit, error paths
    included).  On a machine with an installed fault plan, failed or
    badly straggling GPUs are dropped and the chunk groups re-planned
    over the survivors (any count works — HET needs no power of two
    unless ``gpu_merge_groups`` is on); recovery work is reported on
    the result.
    """
    with machine.resilience_override(resilience):
        return _het_sort(machine, data, gpu_ids, config, values)


def _het_sort(machine: Machine, data: Union[np.ndarray, HostBuffer],
              gpu_ids: Optional[Sequence[int]],
              config: Optional[HetConfig],
              values: Optional[np.ndarray]) -> SortResult:
    config = config or HetConfig()
    config.buffers_per_gpu()  # validate the approach early
    host_in, value_staging = stage_input(machine, data, values)
    value_dtype = value_staging.dtype if value_staging is not None else None
    n = len(host_in.data)
    # The on-GPU group merge needs 2^k chunks per group.
    ids, excluded = plan_gpu_set(machine, gpu_ids,
                                 power_of_two=config.gpu_merge_groups)
    g = len(ids)
    dtype = host_in.dtype

    devices = [machine.device(i) for i in ids]
    group_sizes, capacity = plan_chunks(n, g, chunk_capacity_for(
        machine, devices, config, dtype, value_dtype, n))
    groups = len(group_sizes)
    # GPU-merged groups: every uniform group, whose chunks fill the
    # buffers exactly (plan_chunks), comes back as one sorted run.
    merged = {index for index, sizes in enumerate(group_sizes)
              if config.gpu_merge_groups and g > 1
              and sizes == [capacity] * g}
    # A plan that comes back as one run (one chunk, or one GPU-merged
    # group) needs no final merge — the paper's 1-GPU baseline is plain
    # Thrust without a merge phase — so that run stages straight into
    # the output.
    one_run = len(group_sizes) == 1 and (len(group_sizes[0]) == 1
                                         or 0 in merged)

    host_out = machine.host_buffer(np.empty(n, dtype=dtype),
                                   numa=host_in.numa)
    values_out = None
    if value_dtype is not None:
        values_out = machine.host_buffer(np.empty(n, dtype=value_dtype),
                                         numa=host_in.numa)

    # Every staging run (per-chunk, per-group, eager-merged) is dead
    # once the final merge lands in host_out, so they all come from the
    # workspace pool and go back after the run.
    borrowed: List[np.ndarray] = []

    def staging_array(size: int, array_dtype) -> Optional[np.ndarray]:
        if array_dtype is None:
            return None
        borrowed.append(default_pool.take(size, array_dtype))
        return borrowed[-1]

    def staging_runs(size: int):
        return staging_array(size, dtype), staging_array(size, value_dtype)

    output_runs = (host_out.data,
                   values_out.data if values_out is not None else None)

    # Chunk j of group i reads a contiguous input range and owns one
    # host staging run; a GPU-merged group's runs are slices of the one
    # group run.  ``group_runs`` holds the one run of every GPU-merged
    # or eager-merged group.
    tasks: List[ChunkTask] = []
    by_group: List[List[ChunkTask]] = []
    group_runs: dict = {}
    offset = 0
    for index, sizes in enumerate(group_sizes):
        if index in merged:
            group_runs[index] = (output_runs if one_run
                                 else staging_runs(sum(sizes)))
        by_group.append([])
        for j, size in enumerate(sizes):
            if index in merged:
                run, value_run = (array[j * size:(j + 1) * size]
                                  if array is not None else None
                                  for array in group_runs[index])
            else:
                run, value_run = output_runs if one_run else staging_runs(size)
            tasks.append(ChunkTask(
                index=len(tasks), group=index, src_start=offset,
                src_stop=offset + size, run=run, value_run=value_run))
            by_group[-1].append(tasks[-1])
            offset += size

    # Eager merging: once a whole group's chunks are back in host
    # memory, merge them on the CPU (serialized on one merge stream)
    # while the GPUs continue — except the last group (Section 5.3).
    group_remaining = [len(sizes) for sizes in group_sizes]
    cpu_stream = Stream(machine, name="cpu-merge")

    def on_chunk_done(task: ChunkTask) -> None:
        group_remaining[task.group] -= 1
        if (config.eager_merge and group_remaining[task.group] == 0
                and task.group < groups - 1):
            group = by_group[task.group]
            merged_keys, merged_values = group_runs[task.group] = \
                staging_runs(sum(t.size for t in group))
            cpu_stream.submit(cpu_multiway_merge(
                machine, merged_keys, [t.run for t in group],
                numa=host_in.numa, phase="Merge",
                values_out=merged_values,
                value_runs=[t.value_run for t in group]
                if value_dtype is not None else None))

    def per_gpu_pipeline(device, lane_tasks: List[ChunkTask]):
        if config.approach == "3n":
            return _pipeline_3n(machine, device, lane_tasks, host_in,
                                value_staging, config.primitive, capacity,
                                on_chunk_done)
        return _grouped_pipeline(machine, [device],
                                 [[task] for task in lane_tasks], (),
                                 host_in, value_staging, config.primitive,
                                 capacity, on_chunk_done)

    def run():
        env = machine.env
        if config.gpu_merge_groups:
            # The GPUs step through the groups in lockstep.
            yield from _grouped_pipeline(
                machine, devices, by_group, merged, host_in, value_staging,
                config.primitive, capacity, on_chunk_done)
        else:
            yield env.all_of([
                env.process(per_gpu_pipeline(devices[slot], tasks[slot::g]))
                for slot in range(min(g, len(tasks)))])
        yield cpu_stream.synchronize()
        if one_run:
            return
        # The final merge's runs: one per eager- or GPU-merged group,
        # one per chunk of any other group.
        runs = []
        for index, group in enumerate(by_group):
            runs.extend([group_runs[index]] if index in group_runs
                        else [(task.run, task.value_run) for task in group])
        yield from cpu_multiway_merge(
            machine, host_out.data, [keys for keys, _ in runs],
            numa=host_in.numa, phase="Merge",
            values_out=values_out.data if values_out is not None else None,
            value_runs=[payloads for _, payloads in runs]
            if value_dtype is not None else None)

    try:
        with SortRecord(machine, "HetSort", host_in) as record:
            machine.run(run())
    finally:
        for array in borrowed:
            default_pool.give(array)
    return record.result(
        "het", ids, ("HtoD", "Sort", "DtoH", "Merge"), excluded=excluded,
        chunk_groups=groups,
        output=host_out.data,
        output_values=values_out.data if values_out is not None else None)
