"""Structured concurrency for supervised phases.

A :class:`TaskGroup` is a nursery for the processes one supervised
phase spawns.  Every task runs inside a *shield* — a wrapper generator
that absorbs :class:`~repro.sim.engine.Interrupt` (cooperative
cancellation) and records any other failure into the group instead of
letting the process event fail.  That keeps the simulation environment
clean: a bare failing :class:`~repro.sim.engine.Process` with no waiter
crashes the event loop, and two simultaneous failures under one
``AllOf`` crash it even *with* a waiter.  With shields, task process
events always succeed; failures travel through ``group.failure`` and
the ``failed`` event, which the phase runner turns into exactly one
exception raised at a well-defined point.

The runner (:meth:`TaskGroup.run`) waits for all tasks, reacts to the
first recorded failure or an optional deadline event by cancelling the
survivors, drains them, and then raises — so the supervisor observes
one typed error per phase, never a half-torn-down event loop.
:meth:`TaskGroup.supervise` is how a driver runs one phase: the runner
in its own process, plus a force-drain backstop for anything the
runner could not reap.  Every phase runs this way, whether or not
anything (a fault plan, a deadline, a shutdown) can stop it early: the
first task that raises fails its phase once its siblings are drained,
so a plain sort leaves the machine as clean as a supervised one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import DeadlineExceededError
from repro.sim.engine import Environment, Event, Interrupt, Process


class TaskGroup:
    """Nursery tracking one supervised phase's processes.

    Spawn with :meth:`spawn`; run the phase via :meth:`run` (itself a
    process generator).  After a failure or cancellation the group is
    *closed*: tasks that have not started yet exit immediately instead
    of beginning fresh work.
    """

    def __init__(self, env: Environment, name: str = "phase"):
        self.env = env
        self.name = name
        #: Unfinished tasks by spawn number: a task drops out as it
        #: finishes, so a long phase keeps only its live processes.
        self.procs: Dict[int, Process] = {}
        self._spawned = 0
        #: Results of finished named tasks by name.  Unnamed tasks (a
        #: pipeline's copies and kernels) record none: their waiters
        #: take the value from the process, and holding it here would
        #: keep every copy's span alive until the phase ends.
        self.results: Dict[str, object] = {}
        #: First failure recorded by any shield (wins; later ones drop).
        self.failure: Optional[BaseException] = None
        self.failed: Event = env.event()
        self.cancelled = False
        #: Processes already interrupted, held so none is sent twice.
        self._interrupted: Set[Process] = set()

    # -- spawning ----------------------------------------------------------
    def spawn(self, gen, name: Optional[str] = None) -> Process:
        """Run ``gen`` as a task: shielded, its failures go to the
        group.  ``name`` keys the task's result."""
        number = self._spawned
        self._spawned += 1
        proc = self.env.process(self._shield(gen, name, number))
        self.procs[number] = proc
        return proc

    def check(self) -> None:
        """Raise the recorded failure, if any: with :meth:`spawn`, the
        seam a task that waits for its own inner processes takes
        (:func:`repro.sort.p2p.p2p_pipeline` and its merge)."""
        if self.failure is not None:
            raise self.failure

    def _shield(self, gen, name: Optional[str], number: int):
        try:
            if self.cancelled:
                # The group was torn down before this task ever
                # started — don't begin fresh work on a layout being
                # dismantled.
                gen.close()
                return None
            try:
                value = yield from gen
            except Interrupt:
                return None
            except BaseException as exc:  # noqa: BLE001 - first failure wins
                self.note_failure(exc)
                return None
            if name is not None:
                self.results[name] = value
            return value
        finally:
            del self.procs[number]

    def note_failure(self, exc: BaseException) -> None:
        """Record ``exc`` as the phase failure (first one wins)."""
        if self.failure is None:
            self.failure = exc
        if not self.failed.triggered:
            self.failed.succeed()

    # -- cancellation ------------------------------------------------------
    def cancel(self) -> None:
        """Interrupt every started live task; block unstarted ones.

        Tasks with no ``_target`` yet (their ``Initialize`` event is
        still queued) cannot be interrupted safely — the shield's entry
        check makes them exit as soon as they start instead.  Each task
        is interrupted at most once: the shield absorbs it and ends the
        task, and interrupting a process twice (or after it died) is an
        engine error.
        """
        self.cancelled = True
        self._interrupt_live()

    def _interrupt_live(self) -> None:
        for proc in self.alive():
            self.interrupt_task(proc)

    def interrupt_task(self, proc: Process,
                       cause: str = "phase cancelled") -> bool:
        """Interrupt one task at most once; returns whether it was sent.

        All targeted cancellation (speculation losers, group teardown)
        goes through here so a task never receives a second interrupt —
        interrupting a process twice, or after it died, is an engine
        error.
        """
        if (proc.is_alive and proc._target is not None
                and proc not in self._interrupted):
            self._interrupted.add(proc)
            proc.interrupt(cause)
            return True
        return False

    def alive(self) -> List[Process]:
        """Tasks that have not finished yet, in spawn order."""
        return list(self.procs.values())

    # -- the phase runner --------------------------------------------------
    def run(self, body, deadline: Optional[Event] = None):
        """Process: run ``body`` (a generator) plus its spawned tasks.

        Waits until every task (including ones spawned mid-phase) has
        finished.  On the first recorded failure — or when ``deadline``
        fires — cancels the remainder, drains them, and raises the
        failure (or :class:`~repro.errors.DeadlineExceededError`).
        Interrupting the runner itself (supervisor teardown after a raw
        event-loop escape) makes it return quietly.
        """
        try:
            self.spawn(body, name="body")
            while True:
                # ``processed``, not ``triggered``: a Timeout is born
                # triggered (its value is set at construction) and only
                # becomes processed when its delay elapses.
                if (deadline is not None and deadline.processed
                        and self.failure is None):
                    self.cancel()
                    yield from self._drain()
                    raise DeadlineExceededError(
                        f"deadline expired during the {self.name} phase "
                        f"at t={self.env.now:.6f}s")
                if self.failure is not None:
                    self.cancel()
                    yield from self._drain()
                    raise self.failure
                live = self.alive()
                if not live:
                    break
                waits = [self.env.all_of(live)]
                if not self.failed.triggered:
                    waits.append(self.failed)
                if deadline is not None and not deadline.processed:
                    waits.append(deadline)
                yield self.env.any_of(waits)
        except Interrupt:
            return None
        return None

    def supervise(self, body, deadline: Optional[Event] = None):
        """Process body: run the phase ``body`` and wait for its runner.

        The runner raises at most one exception (the phase's recorded
        failure or the deadline).  Before it reaches the caller, a
        backstop force-drains every task the runner could not reap, so
        no task outlives its phase.  A caller closed mid-phase (its
        frame abandoned after a typed error crossed ``machine.run``)
        unwinds at once: yielding inside ``close()`` is illegal.

        ``body`` runs as a shielded task itself, and every task it
        spawns gets the shield too, so a phase with no fault plan and
        no deadline runs the same way as one that has both.
        """
        runner = self.env.process(self.run(body, deadline=deadline))
        try:
            yield runner
        except GeneratorExit:
            raise
        except BaseException:
            for _attempt in range(100):
                self.cancelled = True
                leftovers = self.alive()
                if runner.is_alive:
                    leftovers.append(runner)
                if not leftovers:
                    break
                for proc in leftovers:
                    self.interrupt_task(proc)
                try:
                    yield self.env.all_of(leftovers)
                except BaseException:  # noqa: BLE001 - keep draining
                    continue
            raise

    def _drain(self):
        """Wait for cancelled tasks to finish unwinding.

        Loops because tasks that had not started when :meth:`cancel`
        ran only become interruptible (or exit via the shield's entry
        check) once their ``Initialize`` fires.
        """
        while True:
            live = self.alive()
            if not live:
                return
            self._interrupt_live()
            yield self.env.all_of(live)
