"""The HET sort's phase driver, behind both :func:`repro.sort.het.het_sort`
and ``SortSupervisor.sort(algorithm="het")``.

Two phases, both run by the one HET plan (:class:`~repro.sort.het.HetPlan`):

``Pipeline``
    the plan's lanes — 2n or 3n per GPU, or GPU-merged groups in
    lockstep, with eager merging — over every chunk not yet flushed.
    A chunk is *flushed* once its DtoH landed: its sorted run is then
    durable in host memory.  When a group's last chunk flushes and
    some checkpoint kind is on, the flushed runs form a ``kind="runs"``
    :class:`PhaseCheckpoint`.
``Merge``
    the plan's final CPU multiway merge — host-side work that no GPU
    failure can touch.

A replan needs no barrier, only the flushed set: it frees the device
state and re-lanes the unflushed chunks over the survivors (any count,
the power-of-two prefix with ``gpu_merge_groups``).  The lanes no
longer step in lockstep, so a GPU-merged group that had not fully
flushed falls back to per-chunk runs.  Nothing flushed is sorted or
fetched again.  Payloads travel with their keys; straggler speculation
does not apply (a straggling lane delays only its own chunks).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.recovery.checkpoint import PhaseCheckpoint
from repro.recovery.supervisor import PhaseDriver
from repro.runtime.buffer import HostBuffer
from repro.sort.het import HetConfig, HetPlan


class HetRun(PhaseDriver):
    """State and phase bodies of one HET sort."""

    plain = ("het", "HetSort")

    def __init__(self, sup, host_in: HostBuffer,
                 gpu_ids: Optional[Sequence[int]],
                 host_values: Optional[HostBuffer] = None,
                 het_config: Optional[HetConfig] = None):
        self.config = het_config or HetConfig()
        super().__init__(sup, host_in, gpu_ids,
                         power_of_two=self.config.gpu_merge_groups)
        self.host_values = host_values
        self.plan = HetPlan(self.machine, self._devices(), self.config, tuple(
            np.empty(self.n, dtype=buffer.dtype) if buffer is not None
            else None for buffer in (host_in, host_values)), self._take)
        self.queue = ["Pipeline", "Merge"]

    # -- driver protocol ---------------------------------------------------
    def body(self, name: str):
        return {"Pipeline": self._pipeline, "Merge": self._merge}[name]

    def replan(self, phase: str, survivors, exc) -> None:
        self._free_device_state()
        self._adopt(survivors)
        self.plan.replan()

    def finalize(self):
        return self.plan.outputs

    def result_fields(self) -> dict:
        return {"chunk_groups": len(self.plan.by_group)}

    # -- phase bodies ------------------------------------------------------
    def _devices(self) -> list:
        return [self.machine.device(gpu) for gpu in self.ids]

    def _pipeline(self, group):
        spawn, check = group.seam()
        yield from self.plan.lanes(
            self.machine, self._devices(), self.host_in, self.host_values,
            self._alloc, spawn, check,
            self._group_flushed if self.sup.config.checkpointing else None)

    def _group_flushed(self, index: int) -> None:
        """Checkpoint every run flushed so far: group ``index``'s last
        chunk just landed."""
        plan = self.plan
        flushed = [task for task in plan.tasks if task.index in plan.flushed]
        self.sup.note_checkpoint(PhaseCheckpoint(
            phase="Pipeline", at=self.machine.env.now, gpu_ids=self.ids,
            chunk=plan.capacity, kind="runs",
            payloads=tuple(task.run for task in flushed),
            values=tuple(task.value_run for task in flushed)
            if self.host_values is not None else None))

    def _merge(self, group):
        yield from self.plan.merge(self.machine, self.host_in.numa)
