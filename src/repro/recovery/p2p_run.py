"""The P2P sort's phase driver, behind both :func:`repro.sort.p2p.p2p_sort`
and ``SortSupervisor.sort(algorithm="p2p")``.

Algorithm 2 runs as four phases, each the steps of
:func:`repro.sort.p2p.p2p_pipeline` spawned through the phase's task
group —

``Partition``
    after NUMA-local placement's charged ``Redistribute``, allocate
    chunk + auxiliary buffers on every GPU and copy each GPU's slice of
    the padded staging array down (``HtoD``);
``LocalSort``
    sort every chunk on its GPU; optionally back up stragglers
    speculatively (see :meth:`_speculation_monitor`);
``Exchange``
    the recursive pivot-swap-merge, whose spawn/check seam lets a
    mid-swap device failure unwind cooperatively;
``Gather``
    copy the merged chunks back to the host (``DtoH``).

After ``LocalSort`` and ``Exchange`` the driver can stage every chunk
to host memory (a restorable :class:`PhaseCheckpoint`).  A replan
recovers from the newest one: a *merged* checkpoint is the output; a
*sorted* one is copied down to the surviving power-of-two GPU prefix
and merged pairwise there (phase ``Restore``), or merged on the CPU
when the survivors cannot hold it; with neither, the sort restarts
from ``Partition`` on the survivors, reading the node-0 staging.  The
padded length is fixed at the *initial* GPU count, which every later
survivor prefix divides.  Payloads (one value per key) travel with
their keys through every phase, checkpoint, restore and backup.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ReproError, SortError
from repro.recovery.checkpoint import PhaseCheckpoint
from repro.recovery.supervisor import PhaseDriver
from repro.runtime.buffer import HostBuffer
from repro.runtime.cpu_ops import cpu_multiway_merge
from repro.runtime.kernels import merge_two_on_device, sort_on_device
from repro.runtime.memcpy import copy_async, span
from repro.sim.engine import Interrupt
from repro.sort import placement as pl
from repro.sort.p2p import (Chunk, P2PConfig, P2PStats, check_fits, copy_in,
                            copy_out, merge_chunks, merge_stages,
                            padded_staging, sort_chunk)

#: A local sort is a straggler once its phase has run past this multiple
#: of the median completed sort's duration.
SPECULATION_MULTIPLE = 2.0
#: Fraction of the local sorts that must finish before that median is
#: trusted (the quorum that arms speculation).
SPECULATION_QUORUM = 0.5


def _records(chunk: Chunk) -> list:
    """A chunk's primary buffers: keys, then payloads if it has them."""
    return [chunk.primary] + ([chunk.value_primary] if chunk.has_values
                              else [])


class P2PRun(PhaseDriver):
    """State and phase bodies of one P2P sort."""

    plain = ("p2p", "P2PSort")

    def __init__(self, sup, host_in: HostBuffer,
                 gpu_ids: Optional[Sequence[int]],
                 host_values: Optional[HostBuffer] = None,
                 p2p_config: Optional[P2PConfig] = None):
        super().__init__(sup, host_in, gpu_ids, power_of_two=True)
        self.config = p2p_config or P2PConfig()
        if self.config.input_placement not in (pl.NODE0, pl.NUMA_LOCAL):
            raise SortError(
                f"unknown input_placement {self.config.input_placement!r}")
        machine = self.machine
        self.value_dtype = (host_values.dtype if host_values is not None
                            else None)
        self.record_bytes = self.dtype.itemsize + (
            self.value_dtype.itemsize if host_values is not None else 0)
        self.chunk = -(-self.n // len(self.ids))
        #: Fixed for the whole run: every later power-of-two survivor
        #: prefix divides it, so replans never re-pad.
        self.padded = self.chunk * len(self.ids)
        self.staging, self.value_staging = padded_staging(
            machine, host_in.data, self.padded, host_in.numa,
            host_in.pinned,
            values=host_values.data if host_values is not None else None,
            take=self._take)
        self.host_out, self.values_out = (
            machine.host_buffer(np.empty(self.padded, dtype=dtype),
                                numa=self.staging.numa,
                                pinned=self.staging.pinned)
            if dtype is not None else None
            for dtype in (self.dtype, self.value_dtype))
        #: Where the next Partition reads its chunks from (Section 7,
        #: :mod:`repro.sort.placement`): a replan's reads node 0.
        self.placement = self.config.input_placement
        self.chunks: List[Chunk] = []
        self.sorted_flags: List[bool] = []
        self.stats = P2PStats()
        self.queue: List[str] = ["Partition", "LocalSort", "Exchange",
                                 "Gather"]
        self._sort_procs: Dict[int, object] = {}
        #: Running speculative backups by straggler slot.
        self._backups: Dict[int, object] = {}
        self._pending_stage: Dict[int, List[np.ndarray]] = {}
        self._restore_ck: Optional[PhaseCheckpoint] = None
        self._merged_ck: Optional[PhaseCheckpoint] = None
        self.cpu_output: Optional[tuple] = None

    # -- driver protocol ---------------------------------------------------
    def body(self, name: str):
        return {"Partition": self._partition,
                "LocalSort": self._local_sort,
                "Exchange": self._exchange,
                "Restore": self._restore,
                "Gather": self._gather}[name]

    def checkpoint_body(self, name: str):
        cfg = self.sup.config
        if name == "LocalSort" and cfg.checkpoint_sorted_chunks:
            return self._stage_chunks
        if name == "Exchange" and cfg.checkpoint_merged_chunks:
            return self._stage_chunks
        return None

    def after_phase(self, name: str) -> None:
        now = self.machine.env.now
        if name == "Partition":
            # The layout a restorable checkpoint builds on; a run that
            # stages none records none.
            if self.sup.config.checkpointing:
                self.sup.note_checkpoint(PhaseCheckpoint(
                    phase=name, at=now, gpu_ids=self.ids, chunk=self.chunk))
        elif name in ("LocalSort", "Exchange"):
            if len(self._pending_stage) == len(self.chunks):
                kind = "sorted" if name == "LocalSort" else "merged"
                staged = [self._pending_stage[slot]
                          for slot in range(len(self.chunks))]
                self.sup.note_checkpoint(PhaseCheckpoint(
                    phase=name, at=now, gpu_ids=self.ids,
                    chunk=self.chunk, kind=kind,
                    payloads=tuple(arrays[0] for arrays in staged),
                    values=tuple(arrays[1] for arrays in staged)
                    if self.values_out is not None else None))
            self._pending_stage = {}
        elif name == "Restore":
            ck = self._restore_ck
            self.sup.note_restored(
                name, len(ck.payloads) if ck is not None else 0)
            self._restore_ck = None
            if self.cpu_output is not None:
                # The host merge already produced the full output —
                # nothing left for the remaining phases to do.
                self.queue = [name]

    def replan(self, phase: str, survivors, exc) -> None:
        self._free_device_state()
        self.chunks = []
        self._adopt(survivors)
        self.chunk = self.padded // len(self.ids)
        self.sorted_flags = []
        self._pending_stage = {}
        ck = self.sup.last_restorable()
        if ck is not None and ck.kind == "merged":
            # Globally merged chunks are staged on the host: the output
            # assembles from the checkpoint, no GPU work remains.
            self._merged_ck = ck
            self.queue = []
        elif ck is not None and ck.kind == "sorted":
            self._restore_ck = ck
            self.queue = ["Restore", "Exchange", "Gather"]
        else:
            self.queue = ["Partition", "LocalSort", "Exchange", "Gather"]

    def finalize(self):
        ck = self._merged_ck
        if self.cpu_output is not None:
            outputs = self.cpu_output
        elif ck is not None:
            outputs = [np.concatenate(runs) if runs is not None else None
                       for runs in (ck.payloads, ck.values)]
        else:
            outputs = [out.data if out is not None else None
                       for out in (self.host_out, self.values_out)]
        return tuple(out[:self.n] if out is not None else None
                     for out in outputs)

    def result_fields(self) -> dict:
        return {
            "p2p_bytes": self.stats.p2p_bytes,
            "merge_stages": merge_stages(len(self.ids)),
            # Pivots accumulate across replans: aborted exchange
            # attempts keep their probes (they were paid for).
            "pivots": tuple(self.stats.pivots),
        }

    # -- phase bodies ------------------------------------------------------
    def _alloc_chunks(self, count: int) -> None:
        self.chunks = [Chunk.alloc(self.machine.device(gpu), count,
                                    self.dtype, self.value_dtype,
                                    alloc=self._alloc)
                       for gpu in self.ids]

    def _ranges(self) -> list:
        return [(i * self.chunk, (i + 1) * self.chunk)
                for i in range(len(self.ids))]

    def _outputs(self, out: Optional[HostBuffer]) -> Optional[list]:
        """Every GPU's output slice of ``out``, charged per placement."""
        if out is None:
            return None
        return [span(pl.output_buffer_for(self.machine, gpu, out, start,
                                          stop, self.config.input_placement))
                for gpu, (start, stop) in zip(self.ids, self._ranges())]

    def _partition(self, group):
        machine = self.machine
        check_fits(machine, self.ids, self.chunk, self.record_bytes)
        placement, self.placement = self.placement, pl.NODE0
        charged = (placement == pl.NUMA_LOCAL
                   and self.config.charge_redistribution)
        sources = []
        for staging in (self.staging, self.value_staging):
            if staging is None:
                sources.append(None)
                continue
            placed = pl.place_chunks(machine, staging, self.ids,
                                     self._ranges(), placement, charged)
            if charged:
                yield from pl.redistribute(machine, staging, placed)
            sources.append([span(c.staging) for c in placed])
        self._alloc_chunks(self.chunk)
        self.sorted_flags = [False] * len(self.ids)
        copy_in(machine, self.chunks, sources[0], group.spawn, sources[1])

    def _local_sort(self, group):
        env = self.machine.env
        cfg = self.sup.config
        pending = [slot for slot, done in enumerate(self.sorted_flags)
                   if not done]
        if not pending:
            return
        speculate = cfg.speculation and len(pending) >= 2
        done_evts = ({slot: env.event() for slot in pending} if speculate
                     else {})
        durations: Dict[int, float] = {}
        phase_start = env.now
        self._sort_procs = {}
        self._backups = {}
        for slot in pending:
            self._sort_procs[slot] = group.spawn(
                self._sort_task(group, slot, done_evts.get(slot),
                                durations, phase_start), name=f"sort{slot}")
        if speculate:
            group.spawn(self._speculation_monitor(
                group, done_evts, durations, phase_start), name="monitor")
        yield from ()

    def _sort_task(self, group, slot: int, done_evt, durations, start):
        try:
            yield from sort_chunk(self.machine, self.chunks[slot],
                                  self.config.primitive, scratch=True)
            self.sorted_flags[slot] = True
            durations[slot] = self.machine.env.now - start
            backup = self._backups.get(slot)
            if backup is not None:
                group.interrupt_task(backup)
        finally:
            # Fires on success, failure *and* cancellation so the
            # speculation monitor never waits on a dead task.
            if done_evt is not None and not done_evt.triggered:
                done_evt.succeed()

    def _exchange(self, group):
        yield from merge_chunks(self.machine, self.chunks, self.config,
                                self.stats, spawn=group.spawn,
                                check=group.check)

    def _gather(self, group):
        copy_out(self.machine, self.chunks, self._outputs(self.host_out),
                 group.spawn, self._outputs(self.values_out))
        yield from ()

    # -- checkpoint staging ------------------------------------------------
    def _stage_chunks(self, group):
        self._pending_stage = {}
        for slot in range(len(self.chunks)):
            group.spawn(self._stage_task(slot), name=f"stage{slot}")
        yield from ()

    def _stage_task(self, slot: int):
        """Stage one chunk's keys, then its payloads, to host memory."""
        machine = self.machine
        staged = []
        for source in _records(self.chunks[slot]):
            staged.append(np.empty(self.chunk, dtype=source.data.dtype))
            host = machine.host_buffer(staged[-1], numa=self.staging.numa,
                                       pinned=True)
            yield from copy_async(machine, span(host), span(source),
                                  phase="Checkpoint")
        # Recorded only once the DtoHs completed: a chunk whose staging
        # copy died never enters the checkpoint.
        self._pending_stage[slot] = staged

    # -- restore from a sorted checkpoint ----------------------------------
    def _restore(self, group):
        machine = self.machine
        ck = self._restore_ck
        assert ck is not None and ck.payloads is not None
        runs = ck.payloads
        value_runs = ck.values
        old_chunk = ck.chunk
        per = len(runs) // len(self.ids)
        new_chunk = old_chunk * per
        try:
            check_fits(machine, self.ids, new_chunk, self.record_bytes)
        except SortError:
            # The survivors cannot hold the redistributed chunks: merge
            # the staged runs on the host instead.
            out, values_out = (np.empty(self.padded, dtype=dtype)
                               if dtype is not None else None
                               for dtype in (self.dtype, self.value_dtype))
            yield from cpu_multiway_merge(
                machine, out, list(runs), numa=self.staging.numa,
                phase="Merge", values_out=values_out,
                value_runs=list(value_runs) if value_runs is not None
                else None)
            self.cpu_output = (out, values_out)
            return
        self.chunk = new_chunk
        self._alloc_chunks(new_chunk)
        self.sorted_flags = [True] * len(self.ids)
        for slot in range(len(self.ids)):
            window = slice(slot * per, (slot + 1) * per)
            group.spawn(self._restore_slot(
                slot, runs[window],
                value_runs[window] if value_runs is not None else None,
                old_chunk), name=f"restore{slot}")

    def _restore_slot(self, slot: int, runs, value_runs, old_chunk: int):
        """Rebuild one survivor chunk from ``per`` staged sorted runs."""
        machine = self.machine
        c = self.chunks[slot]
        for r, run in enumerate(runs):
            arrays = [run] + ([value_runs[r]] if value_runs is not None
                              else [])
            for buffer, array in zip(_records(c), arrays):
                host = machine.host_buffer(array, numa=self.staging.numa,
                                           pinned=True)
                yield from copy_async(
                    machine, span(buffer, r * old_chunk,
                                  (r + 1) * old_chunk),
                    span(host), phase="Restore")
            if r:
                # Keep the growing prefix sorted: merge the new run in.
                stop = (r + 1) * old_chunk
                yield from merge_two_on_device(
                    machine, span(c.primary, 0, stop), r * old_chunk,
                    phase="Restore",
                    values=span(c.value_primary, 0, stop)
                    if c.has_values else None)

    # -- speculation -------------------------------------------------------
    def _speculation_monitor(self, group, done_evts, durations,
                             phase_start):
        """Watch the local sorts; back up stragglers on finished GPUs.

        Arms once a :data:`SPECULATION_QUORUM` of sorts finished (the
        median duration is then meaningful); a still-running sort
        becomes a straggler when the phase has run past
        :data:`SPECULATION_MULTIPLE` times that median.  Each straggler
        gets one backup (:meth:`_speculate`) on the least-loaded
        finished GPU.
        """
        env = self.machine.env
        quorum = max(1, math.ceil(len(done_evts) * SPECULATION_QUORUM))
        while sum(1 for e in done_evts.values() if e.triggered) < quorum:
            waiting = [e for e in done_evts.values() if not e.triggered]
            if not waiting:
                return
            yield env.any_of(waiting)
        if not durations:
            # Quorum reached through failures, not completions — the
            # group failure path owns what happens next.
            return
        median = float(np.median(list(durations.values())))
        target = phase_start + SPECULATION_MULTIPLE * median
        while True:
            laggards = [slot for slot, e in done_evts.items()
                        if not e.triggered]
            if not laggards:
                return
            if env.now >= target:
                break
            yield env.any_of([env.timeout(target - env.now)]
                             + [done_evts[slot] for slot in laggards])
        busy = set()
        for slot in laggards:
            if done_evts[slot].triggered or self.sorted_flags[slot]:
                continue
            helper = self._pick_helper(durations, busy, slot)
            if helper is None:
                continue
            busy.add(helper)
            self._backups[slot] = group.spawn(
                self._speculate(group, slot, helper), name=f"spec{slot}")

    def _pick_helper(self, durations, busy, straggler: int) -> Optional[int]:
        machine = self.machine
        for slot, _duration in sorted(durations.items(),
                                      key=lambda kv: (kv[1], kv[0])):
            if slot == straggler or slot in busy:
                continue
            if (machine.faults is not None
                    and machine.faults.is_failed(self.ids[slot])):
                continue
            return slot
        return None

    def _speculate(self, group, slot: int, helper_slot: int):
        """One straggler's backup: re-sort its staging slice on a
        finished GPU.  The first finisher wins: a winning backup cancels
        the original sort, and an original that finishes first cancels
        the backup (see :meth:`_sort_task`)."""
        machine = self.machine
        sup = self.sup
        straggler = self.chunks[slot]
        helper = self.chunks[helper_slot]
        sup.rec.speculations += 1
        self._speculated(straggler, helper, "launched")
        outcome = "aborted"
        temps: list = []
        try:
            for dtype in (self.dtype, self.value_dtype):
                if dtype is not None:
                    temps.append(self._alloc(helper.device, self.chunk,
                                             dtype,
                                             f"spec{slot}on{helper_slot}"))
        except ReproError:
            # No room (or the helper just died) — give up quietly; the
            # original sort is still running.
            for temp in temps:
                self._free_quietly(temp)
            self._speculated(straggler, helper, outcome)
            return
        outcome = "abandoned"
        try:
            lo = slot * self.chunk
            for temp, staging in zip(temps,
                                     (self.staging, self.value_staging)):
                yield from copy_async(machine, span(temp),
                                      span(staging, lo, lo + self.chunk),
                                      phase="Speculate")
            yield from sort_on_device(
                machine, span(temps[0]), primitive=self.config.primitive,
                phase="Speculate",
                values=span(temps[1]) if len(temps) > 1 else None)
            outcome = "won"
            group.interrupt_task(self._sort_procs[slot])
            for target, temp in zip(_records(straggler), temps):
                yield from copy_async(machine, span(target), span(temp),
                                      phase="Speculate")
            self.sorted_flags[slot] = True
            sup.rec.speculative_wins += 1
        except Interrupt:
            # Cancelled by the original's finish ("lost"), or with the
            # phase after a failure ("abandoned").
            if self.sorted_flags[slot]:
                outcome = "lost"
            raise
        finally:
            for temp in temps:
                self._free_quietly(temp)
            self._speculated(straggler, helper, outcome)

    def _speculated(self, straggler: Chunk, helper: Chunk,
                    outcome: str) -> None:
        if self.machine.obs is not None:
            self.machine.obs.speculated("Sort", straggler.device.name,
                                        helper.device.name, outcome,
                                        self.machine.env.now)
