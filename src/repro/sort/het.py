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
structure.  The plan, the lane dispatch, eager merging and the final
merge exist once too, :class:`HetPlan`, run through the pipelines'
``spawn``/``check`` seam by one driver (:mod:`repro.recovery.het_run`);
:func:`het_sort` is that driver with nothing installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import SortError
from repro.faults.policy import ResiliencePolicy
from repro.runtime.buffer import HostBuffer
from repro.runtime.context import Machine
from repro.runtime.cpu_ops import cpu_multiway_merge
from repro.runtime.memcpy import span
from repro.runtime.stream import Stream
from repro.sort.p2p import (Chunk, P2PConfig, P2PStats, copy_in, copy_out,
                            merge_chunks, sort_chunk)
from repro.sort.result import SortResult


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
    sizes = [chunk] * (n // chunk) + ([n % chunk] if n % chunk else [])
    return [sizes[i:i + g] for i in range(0, len(sizes), g)], chunk


def chunk_capacity_for(machine: Machine, devices, config: HetConfig,
                       dtype, value_dtype, n: int) -> int:
    """Largest chunk (elements) the HET pipelines' buffers may hold.

    The memory budget governs the out-of-core streaming chunk size
    (Figure 15a reserves 33 of the A100's 40 GB); in-core data gets one
    chunk of ``n/g`` keys per GPU when the device can hold it with the
    approach's buffer count.
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
                      capacity: int, on_chunk_done, spawn, check, alloc):
    """The 2n pipeline: one lane per device steps through ``groups``.

    Every lane holds one :class:`~repro.sort.p2p.Chunk`, and every group
    has at most one task per lane.  Each step overlaps the DtoH copies
    of group ``k-1`` with the HtoD copies of group ``k`` into the other
    buffer of each chunk; the sorts then block the copies, the other
    buffer serving as the sort's auxiliary memory (Figure 11).  A group
    whose index is in ``merged`` (uniform, so it fills the buffers) is
    P2P-merged on the devices before it returns: the merge phase of the
    P2P sort, verbatim.  Over one lane this is the per-GPU 2n pipeline.
    ``spawn``/``check`` are the supervision seam of
    :func:`~repro.sort.p2p.p2p_pipeline`: a chunk is done only once its
    DtoH landed and ``check`` passed.  The device buffers come from
    ``alloc`` and are freed on every exit.
    """
    env = machine.env
    value_dtype = value_staging.dtype if value_staging is not None else None
    merge_config = P2PConfig(primitive=primitive)
    chunks: List[Chunk] = []
    try:
        for device in devices:
            chunks.append(Chunk.alloc(device, capacity, staging.dtype,
                                      value_dtype, alloc=alloc))
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
            check()
            for task in previous:
                on_chunk_done(task)
            yield env.all_of([spawn(sort_chunk(machine, chunk, primitive,
                                               task.size))
                              for task, chunk in zip(group, lanes)])
            check()
            if group[0].group in merged:
                yield from merge_chunks(machine, chunks, merge_config,
                                        P2PStats(), spawn, check)
            previous = group
        yield env.all_of(copy_tasks_out(machine, chunks, previous,
                                        staging.numa, spawn))
        check()
        for task in previous:
            on_chunk_done(task)
    finally:
        for chunk in chunks:
            chunk.free()


def _pipeline_3n(machine: Machine, device, tasks: Sequence[ChunkTask],
                 staging: HostBuffer, value_staging: Optional[HostBuffer],
                 primitive: str, capacity: int, on_chunk_done, spawn, check,
                 alloc):
    """Per-GPU 3n pipeline: sorting overlaps the in-place transfer swap.

    A :class:`~repro.sort.p2p.Chunk`'s two buffers alternate, and a
    third allocation is the sort's auxiliary memory: while chunk ``i``
    sorts in the primary buffer, the other one streams chunk ``i-1``
    out and chunk ``i+1`` in (Figure 10).  Seam and buffers as in
    :func:`_grouped_pipeline`.
    """
    env = machine.env
    dtypes = [staging.dtype]
    if value_staging is not None:
        dtypes.append(value_staging.dtype)
    chunk = Chunk.alloc(device, capacity, *dtypes, alloc=alloc)
    sort_aux = []
    try:
        for dtype in dtypes:
            sort_aux.append(alloc(device, capacity, dtype,
                                  f"saux{device.id}"))
        yield env.all_of(copy_tasks_in(machine, [chunk], tasks[:1], staging,
                                       value_staging, spawn))
        check()
        for step, task in enumerate(tasks):
            ops = [spawn(sort_chunk(machine, chunk, primitive, task.size))]
            chunk.flip_buffers()
            ops += copy_tasks_out(machine, [chunk], tasks[step - 1:step],
                                  staging.numa, spawn)
            ops += copy_tasks_in(machine, [chunk], tasks[step + 1:step + 2],
                                 staging, value_staging, spawn)
            yield env.all_of(ops)
            check()
            if step:
                on_chunk_done(tasks[step - 1])
        chunk.flip_buffers()
        yield env.all_of(copy_tasks_out(machine, [chunk], tasks[-1:],
                                        staging.numa, spawn))
        check()
        on_chunk_done(tasks[-1])
    finally:
        chunk.free()
        for buffer in sort_aux:
            buffer.free()


def _cpu_merge(machine: Machine, out, runs, numa: int):
    """Process: CPU-merge ``runs``, ``(keys, payloads)`` pairs, into
    ``out``, a pair too."""
    return cpu_multiway_merge(
        machine, out[0], [keys for keys, _ in runs], numa=numa,
        phase="Merge", values_out=out[1],
        value_runs=[values for _, values in runs]
        if out[1] is not None else None)


class HetPlan:
    """One HET sort's chunk plan, the lanes that run it and its merge.

    The plan (:func:`chunk_capacity_for`, then :func:`plan_chunks`) cuts
    the input into :class:`ChunkTask` groups of one chunk per GPU.  A
    chunk's sorted run is host staging from ``take(size, dtype)``, a
    slice of its group's one run if the group is GPU-merged, or, when
    the plan comes back as one run, ``outputs`` (keys, payloads) itself.
    :meth:`lanes` sorts every chunk not yet ``flushed``; :meth:`merge`
    merges the runs into ``outputs``.
    """

    def __init__(self, machine: Machine, devices, config: HetConfig,
                 outputs, take):
        self.config = config
        self.outputs = outputs
        self.dtypes = tuple(out.dtype if out is not None else None
                            for out in outputs)
        self._take = take
        n, g = len(outputs[0]), len(devices)
        group_sizes, self.capacity = plan_chunks(n, g, chunk_capacity_for(
            machine, devices, config, *self.dtypes, n))
        # GPU-merged groups: every uniform group, whose chunks fill the
        # buffers exactly (plan_chunks), comes back as one sorted run.
        self.merged = {index for index, sizes in enumerate(group_sizes)
                       if config.gpu_merge_groups and g > 1
                       and sizes == [self.capacity] * g}
        #: GPU-merged groups run in lockstep over every GPU.
        self.lockstep = config.gpu_merge_groups
        # A plan that comes back as one run needs no final merge — the
        # paper's 1-GPU baseline is plain Thrust without a merge phase.
        self.one_run = len(group_sizes) == 1 and (len(group_sizes[0]) == 1
                                                  or 0 in self.merged)
        #: The one run of every GPU-merged or eager-merged group.
        self.group_runs: dict = {}
        self.tasks: List[ChunkTask] = []
        self.by_group: List[List[ChunkTask]] = []
        #: Indices of the chunks whose DtoH landed: their runs are
        #: durable, and no later lane sorts them again.
        self.flushed: Set[int] = set()
        offset = 0
        for index, sizes in enumerate(group_sizes):
            if index in self.merged:
                self.group_runs[index] = (outputs if self.one_run
                                          else self._runs(sum(sizes)))
            self.by_group.append([])
            for j, size in enumerate(sizes):
                if index in self.merged:
                    run, value_run = (array[j * size:(j + 1) * size]
                                      if array is not None else None
                                      for array in self.group_runs[index])
                else:
                    run, value_run = (outputs if self.one_run
                                      else self._runs(size))
                self.tasks.append(ChunkTask(
                    index=len(self.tasks), group=index, src_start=offset,
                    src_stop=offset + size, run=run, value_run=value_run))
                self.by_group[-1].append(self.tasks[-1])
                offset += size

    def _runs(self, size: int):
        """Fresh host staging for ``size`` records: keys, payloads."""
        return tuple(self._take(size, dtype) if dtype is not None else None
                     for dtype in self.dtypes)

    def lanes(self, machine: Machine, devices, staging: HostBuffer,
              value_staging: Optional[HostBuffer], alloc, spawn, check,
              on_group_flushed=None):
        """Process: sort every chunk not yet flushed on ``devices``.

        GPU-merged groups step through the GPUs in lockstep; otherwise
        GPU ``slot`` runs a 2n or 3n lane over every ``len(devices)``-th
        pending chunk.  Once a group's last chunk flushed,
        ``on_group_flushed(index)`` runs and, with ``eager_merge``, all
        groups but the last merge on one CPU stream while the GPUs
        continue (Section 5.3).  ``alloc`` is the pipelines' device
        allocator and ``spawn``/``check`` their supervision seam.
        """
        env = machine.env
        pending = [task for task in self.tasks
                   if task.index not in self.flushed]
        remaining = [sum(task.index not in self.flushed for task in group)
                     for group in self.by_group]
        cpu_stream = Stream(machine, name="cpu-merge")

        def on_chunk_done(task: ChunkTask) -> None:
            self.flushed.add(task.index)
            remaining[task.group] -= 1
            if remaining[task.group]:
                return
            if on_group_flushed is not None:
                on_group_flushed(task.group)
            if (self.config.eager_merge
                    and task.group < len(self.by_group) - 1):
                cpu_stream.submit(self._eager_merge(machine, task.group,
                                                    staging.numa), spawn)

        args = (staging, value_staging, self.config.primitive,
                self.capacity, on_chunk_done, spawn, check, alloc)
        if self.lockstep:
            yield from _grouped_pipeline(machine, devices, self.by_group,
                                         self.merged, *args)
        else:
            g = len(devices)
            if self.config.approach == "3n":
                lanes = [_pipeline_3n(machine, devices[slot],
                                      pending[slot::g], *args)
                         for slot in range(min(g, len(pending)))]
            else:
                lanes = [_grouped_pipeline(
                    machine, [devices[slot]],
                    [[task] for task in pending[slot::g]], (), *args)
                    for slot in range(min(g, len(pending)))]
            yield env.all_of([spawn(lane) for lane in lanes])
        yield cpu_stream.synchronize()
        check()

    def _eager_merge(self, machine: Machine, index: int, numa: int):
        """Process: merge group ``index``'s runs into one on the CPU; the
        group's run counts only once the merge is complete."""
        group = self.by_group[index]
        out = self._runs(sum(task.size for task in group))
        yield from _cpu_merge(machine, out, [(task.run, task.value_run)
                                             for task in group], numa)
        self.group_runs[index] = out

    def merge(self, machine: Machine, numa: int):
        """Process: the final CPU merge of every run into the output:
        one run per eager- or GPU-merged group, one per chunk of any
        other group (nothing to do for a one-run plan)."""
        if self.one_run:
            return
        runs = []
        for index, group in enumerate(self.by_group):
            runs.extend([self.group_runs[index]] if index in self.group_runs
                        else [(task.run, task.value_run) for task in group])
        yield from _cpu_merge(machine, self.outputs, runs, numa)

    def replan(self) -> None:
        """Re-lane the chunks not yet flushed, on any GPU count.

        The lanes no longer step in lockstep, so a GPU-merged group that
        had not flushed (its chunks flush together) falls back to
        per-chunk runs in fresh staging.
        """
        self.lockstep = False
        for index in list(self.merged):
            if self.by_group[index][0].index in self.flushed:
                continue
            self.merged.discard(index)
            del self.group_runs[index]
            self.one_run = False
            for task in self.by_group[index]:
                task.run, task.value_run = self._runs(task.size)


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
    included).  The sort is the supervised sort with nothing installed
    (no checkpoint, speculation or deadline), so failed or badly
    straggling GPUs, at planning time or mid-run, are dropped (HET
    needs no power of two unless ``gpu_merge_groups`` is on) and the
    chunks not yet flushed are re-laned over the survivors; recovery
    work is reported on the result.
    """
    from repro.recovery.supervisor import plain_sort

    return plain_sort(machine, "het", data, gpu_ids, values, resilience,
                      het_config=config)
