"""Supervised P2P sort: the phase driver behind ``algorithm="p2p"``.

Splits :func:`repro.sort.p2p.p2p_sort` into four supervised phases —

``Partition``
    allocate chunk + auxiliary buffers on every GPU and copy each
    GPU's slice of the padded staging array down (``HtoD``);
``LocalSort``
    sort every chunk on its GPU; optionally launch speculative backup
    sorts for stragglers (see :meth:`_speculation_monitor`);
``Exchange``
    the recursive pivot-swap-merge of the merge phase, run through the
    task group's spawn/check seam so a mid-swap device failure unwinds
    cooperatively instead of crashing the event loop;
``Gather``
    copy the merged chunks back to the host (``DtoH``).

After ``LocalSort`` and ``Exchange`` the driver can stage every chunk
to host memory (a restorable :class:`PhaseCheckpoint`).  On a replan
the dead GPUs' work is recovered from the newest restorable
checkpoint: a *merged* checkpoint resolves entirely from host memory,
a *sorted* one re-distributes the staged runs across the surviving
power-of-two GPU prefix (phase ``Restore``: copy runs down, merge
pairwise on-device), and with no restorable checkpoint the sort
restarts from ``Partition`` on the survivors.

The phase bodies run the steps of :func:`repro.sort.p2p.p2p_pipeline`
(``copy_in``, ``sort_chunk``, ``_merge_chunks``, ``copy_out``) through
the phase's task group, so the supervised sort is the plain pipeline
cut at its barriers.  The padded length is fixed at the *initial* GPU
count: any later power-of-two survivor prefix divides it, so chunks
re-partition without re-padding.  Keys only — the supervised path does
not carry payloads.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import RecoveryError, ReproError, SortError
from repro.recovery.checkpoint import PhaseCheckpoint
from repro.recovery.supervisor import PhaseDriver
from repro.runtime.buffer import HostBuffer
from repro.runtime.cpu_ops import cpu_multiway_merge
from repro.runtime.kernels import merge_two_on_device, sort_on_device
from repro.runtime.memcpy import copy_async, span
from repro.sort.p2p import (P2PConfig, _Chunk, _merge_chunks, _Stats,
                            check_fits, copy_in, copy_out, merge_stages,
                            padded_staging, sort_chunk)


class P2PRun(PhaseDriver):
    """State and phase bodies of one supervised P2P sort."""

    def __init__(self, sup, host_in: HostBuffer, ids: Tuple[int, ...],
                 p2p_config: Optional[P2PConfig] = None):
        super().__init__(sup, host_in, ids)
        self.config = p2p_config or P2PConfig()
        self.chunk = -(-self.n // len(self.ids))
        #: Fixed for the whole run: every later power-of-two survivor
        #: prefix divides it, so replans never re-pad.
        self.padded = self.chunk * len(self.ids)
        self.staging, _ = padded_staging(
            self.machine, host_in.data, self.padded, host_in.numa,
            host_in.pinned, take=self._take)
        self.host_out = self.machine.host_buffer(
            np.empty(self.padded, dtype=self.dtype),
            numa=self.staging.numa, pinned=self.staging.pinned)

        self.chunks: List[_Chunk] = []
        self.sorted_flags: List[bool] = []
        self.stats = _Stats()
        self.queue: List[str] = ["Partition", "LocalSort", "Exchange",
                                 "Gather"]
        self._sort_procs: Dict[int, object] = {}
        self._pending_stage: Dict[int, np.ndarray] = {}
        self._restore_ck: Optional[PhaseCheckpoint] = None
        self._merged_ck: Optional[PhaseCheckpoint] = None
        self.cpu_output: Optional[np.ndarray] = None
        self.use_staged_output = False

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
            self.sup.note_checkpoint(PhaseCheckpoint(
                phase=name, at=now, gpu_ids=self.ids, chunk=self.chunk))
        elif name in ("LocalSort", "Exchange"):
            if len(self._pending_stage) == len(self.chunks):
                kind = "sorted" if name == "LocalSort" else "merged"
                payloads = tuple(self._pending_stage[slot]
                                 for slot in range(len(self.chunks)))
                self.sup.note_checkpoint(PhaseCheckpoint(
                    phase=name, at=now, gpu_ids=self.ids,
                    chunk=self.chunk, kind=kind, payloads=payloads))
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
        keep = 1 << int(math.log2(len(survivors)))
        self.ids = tuple(survivors[:keep])
        self.chunk = self.padded // len(self.ids)
        self.sorted_flags = []
        self._sort_procs = {}
        self._pending_stage = {}
        ck = self.sup.last_restorable()
        if ck is not None and ck.kind == "merged":
            # Globally merged chunks are staged on the host: the output
            # assembles from the checkpoint, no GPU work remains.
            self._merged_ck = ck
            self.use_staged_output = True
            self.queue = []
        elif ck is not None and ck.kind == "sorted":
            self._restore_ck = ck
            self.queue = ["Restore", "Exchange", "Gather"]
        else:
            self.queue = ["Partition", "LocalSort", "Exchange", "Gather"]

    def finalize(self) -> np.ndarray:
        if self.cpu_output is not None:
            return self.cpu_output[:self.n]
        if self.use_staged_output:
            assert self._merged_ck is not None
            return np.concatenate(self._merged_ck.payloads)[:self.n]
        return self.host_out.data[:self.n]

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
        self.chunks = [_Chunk.alloc(self.machine.device(gpu), count,
                                    self.dtype, alloc=self._alloc)
                       for gpu in self.ids]

    def _slices(self, host: HostBuffer) -> list:
        return [span(host, i * self.chunk, (i + 1) * self.chunk)
                for i in range(len(self.ids))]

    def _partition(self, group):
        check_fits(self.machine, self.ids, self.chunk, self.dtype.itemsize)
        self._alloc_chunks(self.chunk)
        self.sorted_flags = [False] * len(self.ids)
        copy_in(self.machine, self.chunks, self._slices(self.staging),
                group.spawn)
        yield from ()

    def _local_sort(self, group):
        env = self.machine.env
        cfg = self.sup.config
        pending = [slot for slot, done in enumerate(self.sorted_flags)
                   if not done]
        if not pending:
            return
        done_evts = {slot: env.event() for slot in pending}
        durations: Dict[int, float] = {}
        phase_start = env.now
        self._sort_procs = {}
        for slot in pending:
            self._sort_procs[slot] = group.spawn(
                self._sort_task(slot, done_evts[slot], durations,
                                phase_start), name=f"sort{slot}")
        if cfg.speculation and len(pending) >= 2:
            group.spawn(self._speculation_monitor(
                group, done_evts, durations, phase_start), name="monitor")
        yield from ()

    def _sort_task(self, slot: int, done_evt, durations, start):
        try:
            yield from sort_chunk(self.machine, self.chunks[slot],
                                  self.config.primitive)
            self.sorted_flags[slot] = True
            durations[slot] = self.machine.env.now - start
        finally:
            # Fires on success, failure *and* cancellation so the
            # speculation monitor never waits on a dead task.
            if not done_evt.triggered:
                done_evt.succeed()

    def _exchange(self, group):
        yield from _merge_chunks(self.machine, self.chunks, self.config,
                                 self.stats, spawn=group.spawn,
                                 check=group.check)

    def _gather(self, group):
        copy_out(self.machine, self.chunks, self._slices(self.host_out),
                 group.spawn)
        yield from ()

    # -- checkpoint staging ------------------------------------------------
    def _stage_chunks(self, group):
        self._pending_stage = {}
        for slot in range(len(self.chunks)):
            group.spawn(self._stage_task(slot), name=f"stage{slot}")
        yield from ()

    def _stage_task(self, slot: int):
        machine = self.machine
        array = np.empty(self.chunk, dtype=self.dtype)
        host = machine.host_buffer(array, numa=self.staging.numa,
                                   pinned=True)
        yield from copy_async(machine, span(host),
                              span(self.chunks[slot].primary),
                              phase="Checkpoint")
        # Recorded only once the DtoH completed: a chunk whose staging
        # copy died never enters the checkpoint.
        self._pending_stage[slot] = array

    # -- restore from a sorted checkpoint ----------------------------------
    def _restore(self, group):
        machine = self.machine
        sup = self.sup
        ck = self._restore_ck
        assert ck is not None and ck.payloads is not None
        runs = ck.payloads
        old_chunk = ck.chunk
        per = len(runs) // len(self.ids)
        new_chunk = old_chunk * per
        try:
            check_fits(machine, self.ids, new_chunk, self.dtype.itemsize)
        except SortError as exc:
            if not sup.config.cpu_merge_fallback:
                raise RecoveryError(
                    f"survivors {self.ids} cannot hold chunks of "
                    f"{new_chunk} keys and cpu_merge_fallback is off") \
                    from exc
            out = np.empty(self.padded, dtype=self.dtype)
            yield from cpu_multiway_merge(machine, out, list(runs),
                                          numa=self.staging.numa,
                                          phase="Merge")
            self.cpu_output = out
            return
        self.chunk = new_chunk
        self._alloc_chunks(new_chunk)
        self.sorted_flags = [True] * len(self.ids)
        for slot in range(len(self.ids)):
            group.spawn(self._restore_slot(
                slot, runs[slot * per:(slot + 1) * per], old_chunk),
                name=f"restore{slot}")

    def _restore_slot(self, slot: int, runs, old_chunk: int):
        """Rebuild one survivor chunk from ``per`` staged sorted runs."""
        machine = self.machine
        c = self.chunks[slot]
        for r, run in enumerate(runs):
            host = machine.host_buffer(run, numa=self.staging.numa,
                                       pinned=True)
            yield from copy_async(
                machine, span(c.primary, r * old_chunk,
                              (r + 1) * old_chunk),
                span(host), phase="Restore")
            if r:
                # Keep the growing prefix sorted: merge the new run in.
                yield from merge_two_on_device(
                    machine, span(c.primary, 0, (r + 1) * old_chunk),
                    r * old_chunk, phase="Restore")

    # -- speculation -------------------------------------------------------
    def _speculation_monitor(self, group, done_evts, durations,
                             phase_start):
        """Watch the local sorts; back up stragglers on finished GPUs.

        Arms once a quorum of sorts finished (the median duration is
        then meaningful); a still-running sort becomes a straggler when
        the phase has run past ``speculation_multiple`` times that
        median.  Each straggler gets one backup: re-sort its staging
        slice on the least-loaded finished GPU; the first finisher wins
        and the loser is cancelled.
        """
        env = self.machine.env
        cfg = self.sup.config
        quorum = max(1, math.ceil(len(done_evts) * cfg.speculation_quorum))
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
        target = phase_start + cfg.speculation_multiple * median
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
            group.spawn(self._speculate(group, slot, helper,
                                        done_evts[slot]),
                        name=f"spec{slot}")

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

    def _speculate(self, group, slot: int, helper_slot: int, orig_done):
        machine = self.machine
        env = machine.env
        sup = self.sup
        straggler = self.chunks[slot]
        helper = self.chunks[helper_slot]
        sup.rec.speculations += 1
        if machine.obs is not None:
            machine.obs.speculated("Sort", straggler.device.name,
                                   helper.device.name, "launched", env.now)
        outcome = "aborted"
        try:
            temp = self._alloc(helper.device, self.chunk, self.dtype,
                               f"spec{slot}on{helper_slot}")
        except ReproError:
            # No room (or the helper just died) — give up quietly; the
            # original sort is still running.
            if machine.obs is not None:
                machine.obs.speculated("Sort", straggler.device.name,
                                       helper.device.name, outcome,
                                       env.now)
            return
        backup_done = env.event()
        flag: Dict[str, bool] = {}
        backup = group.spawn(
            self._backup_chain(slot, temp, backup_done, flag),
            name=f"backup{slot}")
        outcome = "abandoned"
        try:
            yield env.any_of([orig_done, backup_done])
            if self.sorted_flags[slot]:
                # The original finished first: cancel the backup and
                # wait for it to unwind before freeing its buffer.
                outcome = "lost"
                group.interrupt_task(backup)
                if not backup_done.triggered:
                    yield backup_done
            elif flag.get("sorted"):
                outcome = "won"
                original = self._sort_procs.get(slot)
                if original is not None:
                    group.interrupt_task(original)
                yield from copy_async(machine, span(straggler.primary),
                                      span(temp), phase="Speculate")
                self.sorted_flags[slot] = True
                sup.rec.speculative_wins += 1
            # Otherwise both events fired through failures — the group
            # failure path owns recovery ("abandoned").
        finally:
            self._free_quietly(temp)
            if machine.obs is not None:
                machine.obs.speculated("Sort", straggler.device.name,
                                       helper.device.name, outcome,
                                       env.now)

    def _backup_chain(self, slot: int, temp, backup_done, flag):
        """Re-fetch the straggler's input and sort it on the helper."""
        machine = self.machine
        try:
            lo = slot * self.chunk
            yield from copy_async(machine, span(temp),
                                  span(self.staging, lo, lo + self.chunk),
                                  phase="Speculate")
            yield from sort_on_device(machine, span(temp),
                                      primitive=self.config.primitive,
                                      phase="Speculate")
            flag["sorted"] = True
        finally:
            if not backup_done.triggered:
                backup_done.succeed()
