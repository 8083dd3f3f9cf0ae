"""Supervised HET sort: the phase driver behind ``algorithm="het"``.

Two phases:

``Pipeline``
    stream the chunk plan through the GPUs in *group-synchronous
    batches* — one chunk per GPU at a time, each chunk a
    HtoD → sort → DtoH chain into its own host staging run.  After
    every completed batch the flushed runs form a ``kind="runs"``
    :class:`PhaseCheckpoint`: host memory is the durable store, so a
    later GPU failure costs only the in-flight batch.
``Merge``
    the final CPU multiway merge of all staged runs — host-side work
    that no GPU failure can touch.

Each lane's chain runs the HET pipelines' steps
(:func:`~repro.sort.het.copy_tasks_in`,
:func:`~repro.sort.p2p.sort_chunk`,
:func:`~repro.sort.het.copy_tasks_out`) over the same
:class:`~repro.sort.het.ChunkTask` plan
(:func:`~repro.sort.het.chunk_capacity_for` under the *configured*
buffer count, then :func:`~repro.sort.het.plan_chunks`), so the
supervised run sorts the chunk layout the plain run would.  What it
still does differently from :func:`repro.sort.het.het_sort` (which
stays the paper-faithful measurement path):

* **one** chunk buffer per GPU instead of the 2n/3n double buffering —
  the supervisor needs a quiescent point per batch to checkpoint at,
  which forfeits the copy/compute overlap;
* keys only, no eager merging, no GPU-merged groups, and no straggler
  speculation (a straggling chunk chain delays only its lane's batch).

Replanning is cheap here: flushed runs live on the host, so the driver
just re-batches the unflushed chunks over the survivors — any subset
size works, no power-of-two constraint, and nothing is re-fetched.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.errors import SortError
from repro.recovery.checkpoint import PhaseCheckpoint
from repro.recovery.supervisor import PhaseDriver
from repro.runtime.buffer import HostBuffer
from repro.runtime.cpu_ops import cpu_multiway_merge
from repro.sort.het import (ChunkTask, HetConfig, chunk_capacity_for,
                            copy_tasks_in, copy_tasks_out, plan_chunks)
from repro.sort.p2p import Chunk, sort_chunk


class HetRun(PhaseDriver):
    """State and phase bodies of one supervised HET sort."""

    def __init__(self, sup, host_in: HostBuffer, ids: Tuple[int, ...],
                 host_values: Optional[HostBuffer] = None,
                 het_config: Optional[HetConfig] = None):
        super().__init__(sup, host_in, ids)
        self.config = het_config or HetConfig()
        if (host_values is not None or self.config.eager_merge
                or self.config.gpu_merge_groups):
            raise SortError(
                "the supervised HET sort carries keys only and supports "
                "neither eager_merge nor gpu_merge_groups (use "
                "repro.sort.het.het_sort)")

        machine = self.machine
        devices = [machine.device(i) for i in self.ids]
        group_sizes, self.chunk_capacity = plan_chunks(
            self.n, len(self.ids), chunk_capacity_for(
                machine, devices, self.config, self.dtype, None, self.n))
        self.groups = len(group_sizes)
        self.tasks: List[ChunkTask] = []
        offset = 0
        for group, sizes in enumerate(group_sizes):
            for size in sizes:
                self.tasks.append(ChunkTask(
                    index=len(self.tasks), group=group, src_start=offset,
                    src_stop=offset + size,
                    run=self._take(size, self.dtype)))
                offset += size
        #: Indices of the chunks whose DtoH completed: their runs are
        #: durable, and no replan sorts them again.
        self.flushed: Set[int] = set()
        self.host_out = machine.host_buffer(
            np.empty(self.n, dtype=self.dtype), numa=host_in.numa)
        self.queue: List[str] = ["Pipeline", "Merge"]

    # -- driver protocol ---------------------------------------------------
    # No phase-end checkpoint body: checkpoints are recorded per batch
    # inside the Pipeline body, so one would duplicate the last.
    def body(self, name: str):
        return {"Pipeline": self._pipeline, "Merge": self._merge}[name]

    def replan(self, phase: str, survivors, exc) -> None:
        # Flushed runs are host-resident: nothing to restore, just
        # re-batch the remaining chunks over the survivors.
        self._free_device_state()
        self.ids = tuple(survivors)
        if "Pipeline" not in self.queue:
            self.queue = ["Pipeline"] + list(self.queue)

    def finalize(self):
        return self.host_out.data, None

    def result_fields(self) -> dict:
        return {"chunk_groups": self.groups}

    # -- phase bodies ------------------------------------------------------
    def _pipeline(self, group):
        machine = self.machine
        env = machine.env
        lanes = [Chunk(device, self._alloc(device, self.chunk_capacity,
                                           self.dtype, f"sup-het{device.id}"),
                       None)
                 for device in map(machine.device, self.ids)]
        while True:
            batch = [task for task in self.tasks
                     if task.index not in self.flushed][:len(lanes)]
            if not batch:
                break
            yield env.all_of([group.spawn(self._lane(group, lane, task),
                                          name=f"chunk{task.index}")
                              for lane, task in zip(lanes, batch)])
            group.check()
            self.sup.note_checkpoint(PhaseCheckpoint(
                phase="Pipeline", at=env.now, gpu_ids=self.ids,
                chunk=self.chunk_capacity, kind="runs",
                payloads=tuple(task.run for task in self.tasks
                               if task.index in self.flushed)))
        for lane in lanes:
            self._free_quietly(lane.primary)

    def _lane(self, group, lane: Chunk, task: ChunkTask):
        """One chunk's HtoD → sort → DtoH chain on its lane's buffer."""
        machine = self.machine
        env = machine.env
        yield env.all_of(copy_tasks_in(machine, [lane], [task], self.host_in,
                                       None, group.spawn))
        group.check()
        yield from sort_chunk(machine, lane, self.config.primitive,
                              task.size)
        yield env.all_of(copy_tasks_out(machine, [lane], [task],
                                        self.host_in.numa, group.spawn))
        # Only a fully flushed chunk counts.  A failed copy resolves to
        # None under its shield, hence the check; copy_async writes its
        # destination at completion, so a chain that died mid-flight
        # leaves the run untouched and unflushed.
        group.check()
        self.flushed.add(task.index)

    def _merge(self, group):
        runs = [task.run for task in self.tasks]
        if len(runs) == 1:
            self.host_out.data[:] = runs[0]
            return
        yield from cpu_multiway_merge(self.machine, self.host_out.data,
                                      runs, numa=self.host_in.numa,
                                      phase="Merge")
