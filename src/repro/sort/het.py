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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SortError
from repro.faults.policy import ResiliencePolicy
from repro.runtime.buffer import DeviceBuffer, HostBuffer, default_pool
from repro.runtime.context import Machine
from repro.runtime.cpu_ops import cpu_multiway_merge
from repro.runtime.kernels import sort_on_device
from repro.runtime.memcpy import copy_async, span
from repro.runtime.stream import Stream
from repro.sort.gpu_set import plan_gpu_set
from repro.sort.result import SortRecord, SortResult, stage_input


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
    #: Fraction of each GPU's memory usable for the chunk buffers
    #: (Figure 15a uses 33 GB of the A100's 40 GB).
    memory_budget: float = 0.825

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
class _ChunkTask:
    """One chunk's host source range and output staging run."""

    index: int
    group: int
    src_start: int
    src_stop: int
    run: np.ndarray                      # host staging for sorted keys
    value_run: Optional[np.ndarray]      # host staging for payloads

    @property
    def size(self) -> int:
        return self.src_stop - self.src_start


class _PairedBuffers:
    """A key device buffer plus its optional payload sibling."""

    def __init__(self, device, capacity: int, key_dtype, value_dtype,
                 label: str):
        self.keys: DeviceBuffer = device.alloc(capacity, key_dtype,
                                               label=label)
        self.values: Optional[DeviceBuffer] = None
        if value_dtype is not None:
            self.values = device.alloc(capacity, value_dtype,
                                       label=f"{label}v")

    def free(self) -> None:
        self.keys.free()
        if self.values is not None:
            self.values.free()


def _plan_chunks(n: int, g: int, chunk_capacity: int) -> List[List[int]]:
    """Split ``n`` keys into per-group chunk sizes.

    Every group has ``g`` chunks (the last group may have fewer); all
    chunks except the final one are ``chunk`` keys.
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
    return sizes


def chunk_capacity_for(machine: Machine, devices, config: HetConfig,
                       dtype, value_dtype, n: int) -> int:
    """Physical chunk capacity (elements) the HET pipelines use.

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
    chunk_capacity = int(capacity * config.memory_budget
                         / buffers / per_record_logical)
    per_gpu_need = -(-n // len(devices))
    if per_gpu_need * buffers * per_record_logical <= capacity:
        chunk_capacity = max(chunk_capacity, per_gpu_need)
    return chunk_capacity


def _transfer_in(machine, pair: _PairedBuffers, task: _ChunkTask,
                 staging: HostBuffer, value_staging: Optional[HostBuffer]):
    """Processes copying one chunk (keys + payloads) onto the device."""
    env = machine.env
    procs = [env.process(copy_async(
        machine, span(pair.keys, 0, task.size),
        span(staging, task.src_start, task.src_stop), phase="HtoD"))]
    if pair.values is not None:
        procs.append(env.process(copy_async(
            machine, span(pair.values, 0, task.size),
            span(value_staging, task.src_start, task.src_stop),
            phase="HtoD")))
    return procs


def _transfer_out(machine, pair: _PairedBuffers, task: _ChunkTask,
                  numa: int):
    """Processes copying one sorted chunk back to its host runs."""
    env = machine.env
    run_buffer = HostBuffer(task.run, numa=numa)
    procs = [env.process(copy_async(
        machine, span(run_buffer, 0, task.size),
        span(pair.keys, 0, task.size), phase="DtoH"))]
    if pair.values is not None:
        value_buffer = HostBuffer(task.value_run, numa=numa)
        procs.append(env.process(copy_async(
            machine, span(value_buffer, 0, task.size),
            span(pair.values, 0, task.size), phase="DtoH")))
    return procs


def _sort_chunk(machine, pair: _PairedBuffers, task: _ChunkTask,
                config: HetConfig):
    return sort_on_device(
        machine, span(pair.keys, 0, task.size),
        primitive=config.primitive, phase="Sort",
        values=span(pair.values, 0, task.size)
        if pair.values is not None else None)


def _pipeline_2n(machine: Machine, device, tasks: List[_ChunkTask],
                 staging: HostBuffer, value_staging: Optional[HostBuffer],
                 config: HetConfig, chunk_capacity: int, value_dtype,
                 on_chunk_done):
    """Per-GPU 2n pipeline: alternate transfer steps with blocking sorts."""
    env = machine.env
    dtype = staging.dtype
    buffers = [_PairedBuffers(device, chunk_capacity, dtype, value_dtype,
                              label=f"het{device.id}_{i}")
               for i in range(2)]
    previous: Optional[Tuple[_ChunkTask, int]] = None  # (task, buffer idx)
    for step, task in enumerate(tasks):
        buf = step % 2
        copies = _transfer_in(machine, buffers[buf], task, staging,
                              value_staging)
        if previous is not None:
            prev_task, prev_buf = previous
            copies.extend(_transfer_out(machine, buffers[prev_buf],
                                        prev_task, staging.numa))
        yield env.all_of(copies)
        if previous is not None:
            on_chunk_done(previous[0])
        # The sort blocks all copies: the other buffer serves as the
        # sort's auxiliary memory (Figure 11).
        yield from _sort_chunk(machine, buffers[buf], task, config)
        previous = (task, buf)
    if previous is not None:
        prev_task, prev_buf = previous
        yield env.all_of(_transfer_out(machine, buffers[prev_buf],
                                       prev_task, staging.numa))
        on_chunk_done(prev_task)
    for pair in buffers:
        pair.free()


def _pipeline_3n(machine: Machine, device, tasks: List[_ChunkTask],
                 staging: HostBuffer, value_staging: Optional[HostBuffer],
                 config: HetConfig, chunk_capacity: int, value_dtype,
                 on_chunk_done):
    """Per-GPU 3n pipeline: sorting overlaps the in-place transfer swap.

    Two alternating chunk buffers plus one dedicated auxiliary buffer:
    while chunk ``i`` sorts in one alternating buffer (aux = the third
    buffer), the other alternating buffer simultaneously streams chunk
    ``i-1`` out and chunk ``i+1`` in (Figure 10).
    """
    env = machine.env
    dtype = staging.dtype
    buffers = [_PairedBuffers(device, chunk_capacity, dtype, value_dtype,
                              label=f"het{device.id}_{i}")
               for i in range(3)]  # [0], [1] alternate; [2] is the sort aux
    if tasks:
        yield env.all_of(_transfer_in(machine, buffers[0], tasks[0],
                                      staging, value_staging))
    for step, task in enumerate(tasks):
        current = step % 2
        other = (step + 1) % 2
        ops = [env.process(_sort_chunk(machine, buffers[current], task,
                                       config))]
        prev_task = tasks[step - 1] if step >= 1 else None
        next_task = tasks[step + 1] if step + 1 < len(tasks) else None
        if prev_task is not None:
            ops.extend(_transfer_out(machine, buffers[other], prev_task,
                                     staging.numa))
        if next_task is not None:
            ops.extend(_transfer_in(machine, buffers[other], next_task,
                                    staging, value_staging))
        yield env.all_of(ops)
        if prev_task is not None:
            on_chunk_done(prev_task)
    if tasks:
        last = tasks[-1]
        yield env.all_of(_transfer_out(
            machine, buffers[(len(tasks) - 1) % 2], last, staging.numa))
        on_chunk_done(last)
    for pair in buffers:
        pair.free()


def _grouped_gpu_merge_pipeline(machine: Machine, devices,
                                group_tasks: List[List[_ChunkTask]],
                                staging: HostBuffer,
                                value_staging: Optional[HostBuffer],
                                config: HetConfig, chunk_capacity: int,
                                value_dtype, on_group_merged):
    """Group-synchronous 2n pipeline with an on-GPU P2P merge per group.

    Every step overlaps the outbound copies of the merged group ``k-1``
    with the inbound copies of group ``k``; the sorts and the P2P merge
    stage run between the transfer steps (2n semantics: compute blocks
    copies).  Uniform groups come back as one sorted run; a ragged last
    group skips the GPU merge and returns per-chunk runs.
    """
    from repro.sort.p2p import Chunk, P2PConfig, P2PStats, merge_chunks

    env = machine.env
    chunks = [Chunk.alloc(device, chunk_capacity, staging.dtype, value_dtype)
              for device in devices]

    merge_config = P2PConfig(primitive=config.primitive)

    def transfers_out(group: List[_ChunkTask]):
        procs = []
        for task, chunk in zip(group, chunks):
            run_buffer = HostBuffer(task.run, numa=staging.numa)
            procs.append(env.process(copy_async(
                machine, span(run_buffer, 0, task.size),
                span(chunk.primary, 0, task.size), phase="DtoH")))
            if chunk.has_values:
                value_buffer = HostBuffer(task.value_run,
                                          numa=staging.numa)
                procs.append(env.process(copy_async(
                    machine, span(value_buffer, 0, task.size),
                    span(chunk.value_primary, 0, task.size),
                    phase="DtoH")))
        return procs

    def transfers_in(group: List[_ChunkTask]):
        procs = []
        for task, chunk in zip(group, chunks):
            procs.append(env.process(copy_async(
                machine, span(chunk.aux, 0, task.size),
                span(staging, task.src_start, task.src_stop),
                phase="HtoD")))
            if chunk.has_values:
                procs.append(env.process(copy_async(
                    machine, span(chunk.value_aux, 0, task.size),
                    span(value_staging, task.src_start, task.src_stop),
                    phase="HtoD")))
        return procs

    previous: Optional[List[_ChunkTask]] = None
    for group in group_tasks:
        copies = transfers_in(group)
        if previous is not None:
            copies.extend(transfers_out(previous))
        yield env.all_of(copies)
        if previous is not None:
            on_group_merged(previous)
        # The fresh group sits in the aux buffers: make them primary.
        for chunk in chunks[:len(group)]:
            chunk.flip_buffers()
        sorts = [env.process(sort_on_device(
            machine, span(chunk.primary, 0, task.size),
            primitive=config.primitive, phase="Sort",
            values=span(chunk.value_primary, 0, task.size)
            if chunk.has_values else None))
            for task, chunk in zip(group, chunks)]
        yield env.all_of(sorts)
        uniform = (len(group) == len(chunks)
                   and len({task.size for task in group}) == 1)
        if uniform and len(chunks) > 1:
            # The P2P merge phase of the merge-based sort, verbatim,
            # over fixed-size windows of the pipeline buffers (groups
            # may be smaller than the allocated capacity).
            size = group[0].size
            backing = {}

            def window(buffer: DeviceBuffer) -> DeviceBuffer:
                view = DeviceBuffer(buffer.device, buffer.data[:size])
                backing[id(view)] = buffer
                return view

            group_chunks = [
                Chunk(chunk.device, window(chunk.primary),
                      window(chunk.aux),
                      window(chunk.value_primary)
                      if chunk.has_values else None,
                      window(chunk.value_aux)
                      if chunk.has_values else None)
                for chunk in chunks]
            yield from merge_chunks(machine, group_chunks, merge_config,
                                    P2PStats())
            # Propagate any buffer flips back to the real chunks.
            for real, view in zip(chunks, group_chunks):
                if backing[id(view.primary)] is real.aux:
                    real.flip_buffers()
        previous = group
    if previous is not None:
        yield env.all_of(transfers_out(previous))
        on_group_merged(previous)
    for chunk in chunks:
        chunk.free()


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
    chunk_capacity = chunk_capacity_for(machine, devices, config, dtype,
                                        value_dtype, n)
    group_sizes = _plan_chunks(n, g, chunk_capacity)
    groups = len(group_sizes)

    host_out = machine.host_buffer(np.empty(n, dtype=dtype),
                                   numa=host_in.numa)
    values_out = None
    if value_dtype is not None:
        values_out = machine.host_buffer(np.empty(n, dtype=value_dtype),
                                         numa=host_in.numa)

    def is_uniform(sizes: List[int]) -> bool:
        return len(sizes) == g and len(set(sizes)) == 1

    # Build the task list: chunk j of group i reads a contiguous input
    # range and owns one staging run on the host.  A degenerate run
    # count of one (single GPU, in-core) needs no merge at all — the
    # paper's 1-GPU baseline is plain Thrust without a merge phase — so
    # that run stages directly into the output buffer.  With GPU-merged
    # groups, a uniform group's task runs are slices of one contiguous
    # group array: the group comes back as a single sorted run.
    single_run = sum(len(sizes) for sizes in group_sizes) == 1
    tasks: List[_ChunkTask] = []
    group_runs: dict = {}
    # Every staging run (per-chunk, per-group, eager-merged) is dead
    # once the final merge lands in host_out, so they all come from the
    # workspace pool and go back after the run.
    borrowed: List[np.ndarray] = []

    def staging_array(size: int, array_dtype) -> np.ndarray:
        array = default_pool.take(size, array_dtype)
        borrowed.append(array)
        return array

    offset = 0
    for group_index, sizes in enumerate(group_sizes):
        merged_group = (config.gpu_merge_groups and g > 1
                        and is_uniform(sizes) and not single_run)
        if merged_group:
            total = sum(sizes)
            group_keys = staging_array(total, dtype)
            group_values = (staging_array(total, value_dtype)
                            if value_dtype is not None else None)
            group_runs[group_index] = (group_keys, group_values)
        for j, size in enumerate(sizes):
            if single_run:
                run = host_out.data
                value_run = values_out.data if values_out is not None \
                    else None
            elif merged_group:
                run = group_keys[j * size:(j + 1) * size]
                value_run = (group_values[j * size:(j + 1) * size]
                             if group_values is not None else None)
            else:
                run = staging_array(size, dtype)
                value_run = (staging_array(size, value_dtype)
                             if value_dtype is not None else None)
            tasks.append(_ChunkTask(
                index=len(tasks), group=group_index,
                src_start=offset, src_stop=offset + size, run=run,
                value_run=value_run))
            offset += size
    chunk_capacity = max(task.size for task in tasks)

    per_gpu: List[List[_ChunkTask]] = [[] for _ in range(g)]
    for task_index, task in enumerate(tasks):
        per_gpu[task_index % g].append(task)

    pipeline = _pipeline_2n if config.approach == "2n" else _pipeline_3n

    # Eager merging: once a whole group's chunks are back in host
    # memory, merge them on the CPU (serialized on one merge stream)
    # while the GPUs continue — except the last group (Section 5.3).
    group_remaining = [len(sizes) for sizes in group_sizes]
    eager_results: dict = {}
    cpu_stream = Stream(machine, name="cpu-merge")

    def on_chunk_done(task: _ChunkTask) -> None:
        group_remaining[task.group] -= 1
        if (config.eager_merge and group_remaining[task.group] == 0
                and groups > 1 and task.group < groups - 1):
            group_tasks = [t for t in tasks if t.group == task.group]
            total = sum(t.size for t in group_tasks)
            merged = staging_array(total, dtype)
            merged_values = (staging_array(total, value_dtype)
                             if value_dtype is not None else None)
            eager_results[task.group] = (merged, merged_values)
            cpu_stream.submit(cpu_multiway_merge(
                machine, merged, [t.run for t in group_tasks],
                numa=host_in.numa, phase="Merge",
                values_out=merged_values,
                value_runs=[t.value_run for t in group_tasks]
                if value_dtype is not None else None))

    def run():
        env = machine.env
        if config.gpu_merge_groups and g > 1 and not single_run:
            group_task_lists = [
                [task for task in tasks if task.group == group_index]
                for group_index in range(groups)]

            def on_group_merged(group: List[_ChunkTask]) -> None:
                for task in group:
                    on_chunk_done(task)

            yield from _grouped_gpu_merge_pipeline(
                machine, devices, group_task_lists, host_in,
                value_staging, config, chunk_capacity, value_dtype,
                on_group_merged)
        else:
            pipes = [env.process(pipeline(
                machine, devices[slot], per_gpu[slot], host_in,
                value_staging, config, chunk_capacity, value_dtype,
                on_chunk_done))
                for slot in range(g) if per_gpu[slot]]
            yield env.all_of(pipes)
        yield cpu_stream.synchronize()
        if single_run:
            return
        final_runs: List[np.ndarray] = []
        final_value_runs: List[np.ndarray] = []
        for group_index in range(groups):
            if group_index in eager_results:
                merged, merged_values = eager_results[group_index]
                final_runs.append(merged)
                if merged_values is not None:
                    final_value_runs.append(merged_values)
            elif group_index in group_runs:
                group_keys, group_values = group_runs[group_index]
                final_runs.append(group_keys)
                if group_values is not None:
                    final_value_runs.append(group_values)
            else:
                for task in tasks:
                    if task.group == group_index:
                        final_runs.append(task.run)
                        if task.value_run is not None:
                            final_value_runs.append(task.value_run)
        if len(final_runs) == 1:
            # A single GPU-merged group IS the sorted output; the
            # slices already point into host memory.
            host_out.data[:] = final_runs[0]
            if values_out is not None:
                values_out.data[:] = final_value_runs[0]
            return
        yield from cpu_multiway_merge(
            machine, host_out.data, final_runs, numa=host_in.numa,
            phase="Merge",
            values_out=values_out.data if values_out is not None else None,
            value_runs=final_value_runs if value_dtype is not None
            else None)

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
