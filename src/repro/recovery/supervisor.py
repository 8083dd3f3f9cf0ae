"""The self-healing sort supervisor.

:class:`SortSupervisor` runs a multi-GPU sort as a sequence of
checkpointed phases (see :mod:`repro.recovery`).  Each phase executes
under a :class:`~repro.recovery.tasks.TaskGroup`, so between phases the
supervisor can react to what happened:

* **success** — write the phase's :class:`PhaseCheckpoint` (optionally
  staging chunk payloads to host memory first) and move on;
* **device/transfer failure** — *replan*: drop the dead GPUs, rebuild
  the remaining phase queue over the survivors from the last restorable
  checkpoint, and resume;
* **deadline** — cancel outstanding flows and kernels cleanly and
  return a typed partial :class:`~repro.sort.result.SortResult` with
  ``deadline_exceeded=True``.

The per-algorithm phase logic lives in :mod:`repro.recovery.p2p_run`
and :mod:`repro.recovery.het_run`, both :class:`PhaseDriver` subclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    DeviceFaultError,
    RecoveryError,
    ReproError,
    SortError,
    TransferError,
)
from repro.faults.policy import ResiliencePolicy
from repro.recovery.checkpoint import PhaseCheckpoint, RecoveryStats
from repro.recovery.tasks import TaskGroup
from repro.runtime.buffer import HostBuffer, WorkspacePool, default_pool
from repro.runtime.context import Machine
from repro.sort.gpu_set import (plan_gpu_set, power_of_two_floor,
                                surviving_gpu_ids)
from repro.sort.result import SortRecord, SortResult, stage_input


@dataclass
class SupervisorConfig:
    """Tunables of the self-healing supervisor."""

    #: Stage each GPU's sorted run to host memory after the local sort
    #: (a restorable checkpoint; costs one extra DtoH per chunk).
    checkpoint_sorted_chunks: bool = True
    #: Stage the merged chunks after the exchange phase; any later
    #: failure then resolves entirely from host memory.
    checkpoint_merged_chunks: bool = True
    #: Replans allowed before the run fails with
    #: :class:`~repro.errors.RecoveryError`.
    max_replans: int = 8
    #: Wall-clock budget in simulated seconds; ``None`` disables it.
    deadline_s: Optional[float] = None
    #: Launch speculative backups for straggling local sorts.
    speculation: bool = True
    #: Workspace pool for the run's host-side scratch (padded staging
    #: array, staged runs); ``None`` uses the process-wide
    #: :data:`~repro.runtime.buffer.default_pool`.  The sort service
    #: passes each tenant's quota-limited pool here so one tenant's
    #: scratch cannot starve another's.
    pool: Optional[WorkspacePool] = None
    #: Job label for multi-job traces: the run's root span is recorded
    #: with actor ``job:<label>`` (instead of ``supervisor``) and the
    #: global trace parent stack is left untouched — the stack assumes
    #: one sort at a time, which concurrent service jobs violate.
    job_label: Optional[str] = None
    #: Directory for post-mortem bundles: when set, a terminal
    #: :class:`~repro.errors.SortError` / RecoveryError dumps a
    #: provenance-stamped JSON snapshot (recent events, fault timeline,
    #: critical path up to the failure) there before propagating.
    postmortem_dir: Optional[str] = None

    @property
    def checkpointing(self) -> bool:
        """Whether some checkpoint kind is on."""
        return self.checkpoint_sorted_chunks or self.checkpoint_merged_chunks


class PhaseDriver:
    """Base of the supervised algorithm drivers.

    A driver owns the run's GPU set ``ids`` (planned from ``gpu_ids``;
    ``excluded`` lists the GPUs left out) and its phase ``queue``.
    Per phase the supervisor runs ``body(name)`` and, if there is one,
    ``checkpoint_body(name)``, then calls ``after_phase``; a device or
    transfer failure calls ``replan`` instead.  ``finalize`` returns the
    sorted keys and payloads (``None`` for keys only), and ``cleanup``
    runs on every exit: it frees the device buffers :meth:`_alloc`
    handed out and gives the host scratch :meth:`_take` borrowed back to
    the run's pool.  ``plain`` is the ``(algorithm, root span)`` a run
    with nothing installed is recorded under: the plain sort's names.
    """

    def __init__(self, sup, host_in: HostBuffer,
                 gpu_ids: Optional[Sequence[int]], power_of_two: bool):
        self.sup = sup
        self.machine = sup.machine
        self.host_in = host_in
        self.n = len(host_in.data)
        self.dtype = host_in.dtype
        self.power_of_two = power_of_two
        self.ids, self.excluded = plan_gpu_set(self.machine, gpu_ids,
                                               power_of_two=power_of_two)
        self._allocated: List = []
        self._borrowed: List[np.ndarray] = []

    def checkpoint_body(self, name: str):
        return None

    def after_phase(self, name: str) -> None:
        pass

    def _adopt(self, survivors) -> None:
        """Run on ``survivors`` (their power-of-two prefix if need be)."""
        self.ids = tuple(survivors[:power_of_two_floor(len(survivors))]
                         if self.power_of_two else survivors)

    def cleanup(self) -> None:
        self._free_device_state()
        for array in self._borrowed:
            self.sup.pool.give(array)
        self._borrowed = []

    def _take(self, size: int, dtype) -> np.ndarray:
        self._borrowed.append(self.sup.pool.take(size, dtype))
        return self._borrowed[-1]

    def _alloc(self, device, count: int, dtype, label: str):
        buffer = device.alloc(count, dtype, label=label)
        self._allocated.append(buffer)
        return buffer

    def _free_quietly(self, buffer) -> None:
        if getattr(buffer, "released", False):
            return
        try:
            buffer.free()
        except ReproError:
            pass
        if buffer in self._allocated:
            self._allocated.remove(buffer)

    def _free_device_state(self) -> None:
        for buffer in list(self._allocated):
            self._free_quietly(buffer)
        self._allocated = []


class SortSupervisor:
    """Runs checkpointed, re-plannable sorts on one machine."""

    def __init__(self, machine: Machine,
                 config: Optional[SupervisorConfig] = None):
        self.machine = machine
        self.config = config or SupervisorConfig()
        self.rec = RecoveryStats()
        self.checkpoints: List[PhaseCheckpoint] = []
        self.excluded: tuple = ()
        #: Paths of post-mortem bundles dumped by this supervisor.
        self.postmortems: List[str] = []
        #: Phase executing (and its start time) when a terminal
        #: :class:`~repro.errors.SortError` escaped, else ``None``.
        self.failed_phase: Optional[str] = None
        self.failed_phase_started: Optional[float] = None
        #: Span actor of the run's supervisor-level trace records.
        self.actor = "supervisor"

    @property
    def pool(self) -> WorkspacePool:
        """The workspace pool this run's host scratch comes from."""
        return self.config.pool if self.config.pool is not None \
            else default_pool

    # -- bookkeeping hooks the drivers call --------------------------------
    def note_checkpoint(self, ck: PhaseCheckpoint) -> None:
        self.checkpoints.append(ck)
        self.rec.checkpoints += 1
        if self.machine.obs is not None:
            staged = len(ck.payloads) if ck.payloads is not None else 0
            self.machine.obs.checkpointed(ck.phase, staged, ck.at)

    def note_restored(self, phase: str, staged: int) -> None:
        self.rec.checkpoints_restored += 1
        if self.machine.obs is not None:
            self.machine.obs.checkpointed(phase, staged,
                                          self.machine.env.now,
                                          restored=True)

    def last_restorable(self) -> Optional[PhaseCheckpoint]:
        for ck in reversed(self.checkpoints):
            if ck.restorable:
                return ck
        return None

    # -- the supervised run ------------------------------------------------
    def sort(self, data: Union[np.ndarray, HostBuffer],
             algorithm: str = "p2p",
             gpu_ids: Optional[Sequence[int]] = None,
             values: Optional[np.ndarray] = None,
             **driver_kwargs) -> SortResult:
        """Run a supervised sort; returns a :class:`SortResult`.

        ``algorithm`` is ``"p2p"`` or ``"het"``.  ``values`` (one
        payload per key) sorts records: both drivers carry them through
        every phase, checkpoint and replan (and P2P's restores and
        backups) and return them in ``result.output_values``.  Extra
        keyword arguments go to the algorithm driver (``p2p_config=`` /
        ``het_config=``).

        The run is driven from the host side: this trampoline replays
        :meth:`sort_async`'s yielded events through ``env.run`` without
        wrapping the generator in a process.
        """
        generator = self.sort_async(data, algorithm=algorithm,
                                    gpu_ids=gpu_ids, values=values,
                                    **driver_kwargs)
        env = self.machine.env
        resume, value = generator.send, None
        while True:
            try:
                event = resume(value)
            except StopIteration as stop:
                return stop.value
            try:
                resume, value = generator.send, env.run(until=event)
            except BaseException as exc:  # noqa: BLE001 - replayed below
                # Raw event-loop escapes included: thrown back into the
                # generator at its yield, where the phase loop's except
                # clauses (replan, deadline) and cleanup handle them.
                resume, value = generator.throw, exc

    def sort_async(self, data: Union[np.ndarray, HostBuffer],
                   algorithm: str = "p2p",
                   gpu_ids: Optional[Sequence[int]] = None,
                   values: Optional[np.ndarray] = None,
                   **driver_kwargs):
        """Process form of :meth:`sort`: a generator yielding events.

        Run it under ``env.process`` to execute a supervised sort
        *concurrently* with other work in the same simulated
        environment — the sort service schedules many of these on
        disjoint GPU sets.  The generator's return value is the
        :class:`SortResult`; exceptions propagate through the process
        event like any other task failure.
        """
        machine = self.machine
        if algorithm == "p2p":
            from repro.recovery.p2p_run import P2PRun as driver_cls
        elif algorithm == "het":
            from repro.recovery.het_run import HetRun as driver_cls
        else:
            raise SortError(f"unknown supervised algorithm {algorithm!r} "
                            "(expected 'p2p' or 'het')")

        host_in, host_values = stage_input(machine, data, values)
        driver = driver_cls(self, host_in, gpu_ids, host_values=host_values,
                            **driver_kwargs)
        self.excluded = driver.excluded
        cfg = self.config
        # A run that installs nothing (no checkpoint kind, speculation,
        # deadline or job label) is the plain sort, under its names.
        plain = not (cfg.checkpointing or cfg.speculation
                     or cfg.deadline_s is not None
                     or cfg.job_label is not None)
        label, root, self.actor = (
            (*driver.plain, "sort") if plain
            else (f"supervised-{algorithm}", "SupervisedSort",
                  "supervisor" if cfg.job_label is None
                  else f"job:{cfg.job_label}"))

        env = machine.env
        # The global parent stack assumes one sort at a time; labelled
        # (service) jobs leave it alone and are found by actor instead.
        record = SortRecord(machine, root, host_in, actor=self.actor,
                            nest=cfg.job_label is None)
        deadline = (env.timeout(cfg.deadline_s)
                    if cfg.deadline_s is not None else None)
        deadline_hit = False
        failing_phase: Optional[str] = None
        phase_started: Optional[float] = None
        with record:
            try:
                while driver.queue:
                    name = driver.queue[0]
                    failing_phase = name
                    phase_started = env.now
                    try:
                        group = TaskGroup(env, name=name)
                        yield from group.supervise(driver.body(name)(group),
                                                   deadline)
                        ck_body = driver.checkpoint_body(name)
                        if ck_body is not None:
                            group = TaskGroup(env, name=f"{name}:checkpoint")
                            yield from group.supervise(ck_body(group),
                                                       deadline)
                        driver.after_phase(name)
                        self.rec.completed(name)
                        driver.queue.pop(0)
                    except DeadlineExceededError:
                        deadline_hit = True
                        break
                    except (DeviceFaultError, TransferError) as exc:
                        self._replan(driver, name, exc)
            except SortError as exc:
                # Terminal failures (RecoveryError after exhausting
                # replans, no-survivors SortError): freeze a post-mortem
                # bundle while the state around the death is reachable.
                self.failed_phase = failing_phase
                self.failed_phase_started = phase_started
                self._dump_postmortem(exc, failing_phase, phase_started)
                raise
            finally:
                driver.cleanup()

        output, output_values = ((None, None) if deadline_hit
                                 else driver.finalize())
        return record.result(
            label, driver.ids,
            ("Redistribute", "HtoD", "Sort", "Merge", "DtoH", "Checkpoint",
             "Restore", "Speculate"),
            excluded=self.excluded,
            degraded=bool(self.rec.replans or self.rec.speculative_wins),
            output=output,
            output_values=output_values,
            replans=self.rec.replans,
            checkpoints=self.rec.checkpoints,
            checkpoints_restored=self.rec.checkpoints_restored,
            speculations=self.rec.speculations,
            speculative_wins=self.rec.speculative_wins,
            deadline_exceeded=deadline_hit,
            completed_phases=self.rec.completed_phases,
            **driver.result_fields(),
        )

    # -- internals ---------------------------------------------------------
    def _dump_postmortem(self, exc: BaseException,
                         phase: Optional[str],
                         phase_started: Optional[float] = None) -> None:
        """Write a failure bundle if the config asks for one.

        Never raises: the original exception is mid-flight and a
        reporting failure must not mask it.
        """
        directory = self.config.postmortem_dir
        if directory is None:
            return
        from repro.obs.postmortem import build_bundle, write_bundle
        try:
            bundle = build_bundle(self.machine, exc, phase=phase,
                                  phase_started=phase_started,
                                  label=self.config.job_label)
            self.postmortems.append(write_bundle(bundle, directory))
        except Exception:  # noqa: BLE001 - reporting must not mask exc
            pass

    def _replan(self, driver, phase: str, exc: BaseException) -> None:
        machine = self.machine
        self.rec.replans += 1
        if self.rec.replans > self.config.max_replans:
            raise RecoveryError(
                f"giving up after {self.config.max_replans} replans "
                f"(last failure in {phase}: {exc})") from exc
        survivors, excluded_now = surviving_gpu_ids(machine, driver.ids)
        if not survivors:
            raise SortError(
                f"no healthy GPUs left in {driver.ids}: all failed or "
                "straggling past the exclusion factor") from exc
        dead = tuple(gpu for gpu in driver.ids if gpu not in survivors)
        for gpu in excluded_now:
            if gpu not in self.excluded:
                self.excluded = self.excluded + (gpu,)
        now = machine.env.now
        machine.trace.record("Replan", self.actor, now)
        if machine.obs is not None:
            machine.obs.replanned(phase, type(exc).__name__, dead,
                                  survivors, now)
        driver.replan(phase, survivors, exc)


def plain_sort(machine: Machine, algorithm: str, data, gpu_ids, values,
               resilience: Optional[ResiliencePolicy],
               **driver_kwargs) -> SortResult:
    """The plain ``algorithm`` sort: the supervised sort with nothing
    installed (no checkpoint kind, speculation or deadline), run as one
    process under ``resilience`` for this call only."""
    config = SupervisorConfig(checkpoint_sorted_chunks=False,
                              checkpoint_merged_chunks=False,
                              speculation=False)
    with machine.resilience_override(resilience):
        return machine.run(SortSupervisor(machine, config).sort_async(
            data, algorithm, gpu_ids, values, **driver_kwargs))
