"""A small discrete-event simulation kernel.

The kernel follows the SimPy process-based model: simulation logic is
written as generator functions ("processes") that ``yield`` events.  A
process is suspended until the yielded event is *triggered*, at which
point the event's value is sent back into the generator.

Only the features the virtual GPU runtime needs are implemented:

* :class:`Event` — one-shot condition with callbacks and a value,
* :class:`Timeout` — event triggered after a simulated delay,
* :class:`Process` — generator wrapper, itself an event (its completion),
* :class:`AllOf` / :class:`AnyOf` — condition events over several events,
* :class:`Environment` — the event queue and clock.

The implementation is deterministic: events scheduled for the same time
fire in scheduling order (a monotonically increasing sequence number
breaks ties).
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, List, Optional

import numpy as np


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupts.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "not yet triggered" from a triggered ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, is *triggered* with a value via
    :meth:`succeed` (or :meth:`fail` with an exception), and then has its
    callbacks run by the environment at the current simulation time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: Set by ``fail`` so unhandled failures can be detected.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """Whether the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for a failed event)."""
        if self._value is _PENDING:
            raise SimulationError("event is not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # Support ``yield evt_a & evt_b`` / ``yield evt_a | evt_b``.
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)


class Initialize(Event):
    """Internal event that starts a process on the next loop iteration."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self)


class Process(Event):
    """Wraps a generator; the process *is* the event of its termination.

    Yield events from the generator to wait for them.  The process event
    succeeds with the generator's return value, or fails with any
    uncaught exception.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """``True`` until the wrapped generator has terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        # Detach from the event currently waited on so its later triggering
        # does not resume us twice.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        interrupt_event.callbacks.append(self._resume)
        self.env._schedule(interrupt_event)

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event.defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.env._active_process = None
            self.fail(exc)
            return
        self.env._active_process = None

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process yielded a non-event: {next_event!r}")
        if next_event.env is not self.env:
            raise SimulationError("cannot wait on an event from another environment")
        if next_event.callbacks is None:
            # Already processed: resume immediately on the next loop step.
            immediate = Event(self.env)
            immediate._ok = next_event._ok
            immediate._value = next_event._value
            immediate.defused = True
            immediate.callbacks.append(self._resume)
            self.env._schedule(immediate)
            self._target = immediate
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event


class _Condition(Event):
    """Base class of :class:`AllOf` and :class:`AnyOf`.

    An input event counts as *done* once it has been processed (its
    callbacks ran) — being merely scheduled, like a fresh
    :class:`Timeout`, does not count.  Once the condition triggers it
    detaches from the inputs still pending, so a long-lived input (a
    GPU's fail event, a task group's failure) does not collect one
    dead callback per condition that ever waited on it.
    """

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: List[Event] = list(events)
        self._count = 0
        for event in self.events:
            if event.env is not self.env:
                raise SimulationError("all events must share one environment")
        for event in self.events:
            if event.callbacks is None:
                # Already processed before the condition was created.
                if not event._ok:
                    event.defused = True
                    self.fail(event._value)
                    self._detach()
                    return
                self._count += 1
            else:
                event.callbacks.append(self._on_event)
        if not self.triggered and self._evaluate():
            self._finish()
            if self._count < len(self.events):
                self._detach()

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        else:
            self._count += 1
            if not self._evaluate():
                return
            self._finish()
            if self._count == len(self.events):
                return  # every input processed: nothing left to detach
        self._detach()

    def _detach(self) -> None:
        """Remove this condition's callback from the pending inputs."""
        on_event = self._on_event
        for event in self.events:
            callbacks = event.callbacks
            if callbacks:
                try:
                    callbacks.remove(on_event)
                except ValueError:
                    pass

    def _evaluate(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def _finish(self) -> None:
        self.succeed({e: e._value for e in self.events
                      if e.callbacks is None and e._ok})


class AllOf(_Condition):
    """Succeeds once every given event has succeeded."""

    __slots__ = ()

    def _evaluate(self) -> bool:
        return self._count >= len(self.events)


class AnyOf(_Condition):
    """Succeeds once at least one given event has succeeded."""

    __slots__ = ()

    def _evaluate(self) -> bool:
        return len(self.events) == 0 or self._count >= 1


class SimProfile:
    """Per-phase wall-clock cost breakdown of a simulation run.

    Attached via :attr:`Environment.profile` (``simcore --profile``),
    the engine and the flow network charge their hot sections here so a
    throughput regression can be attributed to a phase — water-fill
    rounds, event-calendar maintenance, heap operations or callback
    dispatch — instead of showing up as an opaque slowdown.  Timing is
    only ever *read* from the simulation, so enabling it never changes
    simulated results; it does add real wall-clock overhead (two
    ``perf_counter`` calls per measured section).
    """

    __slots__ = ("fill_s", "fills", "fill_rounds", "fill_flows",
                 "wide_fills", "advance_s",
                 "schedule_s", "rebuilds", "heap_s", "calendar_s",
                 "dispatched")

    def __init__(self) -> None:
        #: Seconds inside the max-min water-fill solver, and its call
        #: and round counts.
        self.fill_s = 0.0
        self.fills = 0
        self.fill_rounds = 0
        #: Flows the fills re-rated (each fill covers only the
        #: component its change can reach), and the fills whose
        #: component was too wide for the reference solver.
        self.fill_flows = 0
        self.wide_fills = 0
        #: Seconds advancing flow progress (the vectorized sweep).
        self.advance_s = 0.0
        #: Seconds staging + rebuilding the completion calendar.
        self.schedule_s = 0.0
        self.rebuilds = 0
        #: Seconds popping + dispatching object-heap events.
        self.heap_s = 0.0
        #: Seconds popping + dispatching calendar completions.
        self.calendar_s = 0.0
        self.dispatched = 0

    def to_json(self) -> dict:
        """JSON-serializable breakdown (seconds and counts)."""
        return {
            "fill_s": self.fill_s,
            "fills": self.fills,
            "fill_rounds": self.fill_rounds,
            "fill_flows": self.fill_flows,
            "wide_fills": self.wide_fills,
            "advance_s": self.advance_s,
            "schedule_s": self.schedule_s,
            "rebuilds": self.rebuilds,
            "heap_s": self.heap_s,
            "calendar_s": self.calendar_s,
            "events_dispatched": self.dispatched,
        }


class ArrayCalendar:
    """Array-of-struct event calendar for flow completions.

    Completion events are the engine's fast path: a reallocation
    reschedules *every* active flow, so representing each completion as
    a Python heap entry (the previous ``_Completion`` event objects)
    made reallocation cost O(F) object constructions plus O(F log F)
    heap pushes — and every superseded entry was later popped again as
    a no-op.  This calendar stores completions as parallel arrays of
    ``(time, seq, flow slot, token)`` instead:

    * a reallocation *stages* the new completion set in O(1) — slot,
      sequence-id and token arrays are recorded, and every previously
      staged or materialized entry is discarded in bulk (counted in
      :attr:`invalidated`: the engine retired them without
      dispatching);
    * the stage is *rebuilt* lazily, when the engine next needs the
      calendar's head: the owner is first asked to ``settle`` (the flow
      network computes the rates it deferred), then completion times
      are computed vectorized and sorted once, which batches any number
      of same-timestamp reallocations into a single O(F log F) pass.
      The sorted columns are kept as plain Python lists, so the
      per-step :meth:`head` and :meth:`pop` never box NumPy scalars;
    * single disjoint-flow completions (the fast-start path) go to a
      small side heap, merged at the head.

    Sequence ids are reserved from the environment's global counter at
    staging time, exactly as the per-object events consumed them, so
    the (time, seq) order of every surviving event — and therefore the
    simulated result — is bit-identical to the per-object engine.

    Plain ``Timeout``/``Event`` objects stay on the binary heap: they
    are scheduled one at a time (where C ``heapq`` is already optimal)
    and carry arbitrary callback lists.  The array calendar wins where
    events are bulk-(re)scheduled and homogeneous.
    """

    __slots__ = ("env", "times", "eids", "slots", "tokens", "ptr",
                 "_extra", "_staged", "dirty", "invalidated",
                 "dispatch", "times_of", "valid_of", "settle")

    def __init__(self, env: "Environment", dispatch: Callable,
                 times_of: Callable, valid_of: Callable,
                 settle: Optional[Callable] = None):
        self.env = env
        #: Materialized entries, sorted by (time, eid); consumed from
        #: ``ptr`` forward.
        self.times: List[float] = []
        self.eids: List[int] = []
        self.slots: List[int] = []
        self.tokens: List[int] = []
        self.ptr = 0
        #: Singly pushed entries: (time, eid, slot, token) tuples.
        self._extra: List[tuple] = []
        #: Staged-but-unmaterialized bulk reschedule, or ``None``.
        self._staged: Optional[tuple] = None
        self.dirty = False
        #: Entries retired without dispatch (superseded in bulk by a
        #: later reallocation, or staged for a flow that finished in
        #: the same instant).  ``Environment.events_retired`` adds this
        #: to the dispatched count so throughput metrics stay
        #: comparable with the per-object engine, which popped each of
        #: these as an explicit no-op event.
        self.invalidated = 0
        #: ``dispatch(slot, token)`` — deliver one due completion.
        self.dispatch = dispatch
        #: ``times_of(slots) -> ndarray`` — completion times of the
        #: staged flows, computed at rebuild.
        self.times_of = times_of
        #: ``valid_of(slots, tokens) -> bool ndarray`` — which staged
        #: entries are still current at rebuild.
        self.valid_of = valid_of
        #: ``settle()`` — bring the state ``times_of`` reads up to date
        #: before a rebuild, or ``None``.
        self.settle = settle

    def __len__(self) -> int:
        staged = len(self._staged[0]) if self.dirty and self._staged else 0
        return (len(self.times) - self.ptr) + len(self._extra) + staged

    def stage(self, slots: np.ndarray, eids: np.ndarray,
              tokens: np.ndarray) -> None:
        """Replace the whole bulk completion set (O(1) until rebuilt)."""
        if self._staged is not None:
            self.invalidated += len(self._staged[0])
        self.invalidated += len(self.times) - self.ptr
        self.times = self.eids = self.slots = self.tokens = []
        self.ptr = 0
        self._staged = (slots, eids, tokens)
        self.dirty = True

    def push(self, time: float, eid: int, slot: int, token: int) -> None:
        """Schedule one completion (the disjoint fast-start path)."""
        heapq.heappush(self._extra, (time, eid, slot, token))

    def _rebuild(self) -> None:
        slots, eids, tokens = self._staged
        self._staged = None
        self.dirty = False
        mask = self.valid_of(slots, tokens)
        self.invalidated += int(len(mask) - mask.sum())
        slots = slots[mask]
        times = self.times_of(slots)
        order = np.argsort(times, kind="stable")
        self.times = times[order].tolist()
        self.eids = eids[mask][order].tolist()
        self.slots = slots[order].tolist()
        self.tokens = tokens[mask][order].tolist()
        self.ptr = 0

    def head(self) -> Optional[tuple]:
        """(time, eid) of the earliest entry, or ``None`` when empty."""
        if self.dirty:
            if self.settle is not None:
                self.settle()
            prof = self.env._profile
            if prof is None:
                self._rebuild()
            else:
                t0 = perf_counter()
                self._rebuild()
                prof.schedule_s += perf_counter() - t0
                prof.rebuilds += 1
        ptr = self.ptr
        extra = self._extra
        if ptr < len(self.times):
            key = (self.times[ptr], self.eids[ptr])
            if extra and (extra[0][0], extra[0][1]) < key:
                return extra[0][0], extra[0][1]
            return key
        if extra:
            return extra[0][0], extra[0][1]
        return None

    def pop(self) -> tuple:
        """Remove and return the earliest entry (time, slot, token).

        Callers must have checked :meth:`head` first; the head call
        also rebuilds a dirty stage.
        """
        i = self.ptr
        extra = self._extra
        if extra and (i >= len(self.times)
                      or (extra[0][0], extra[0][1])
                      < (self.times[i], self.eids[i])):
            time, _eid, slot, token = heapq.heappop(extra)
            return time, slot, token
        self.ptr = i + 1
        return self.times[i], self.slots[i], self.tokens[i]


class Environment:
    """Execution environment: the clock and the event queue."""

    __slots__ = ("_now", "_queue", "_eid", "_active_process",
                 "events_processed", "_obs", "_calendar", "_profile")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[tuple] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Number of events whose callbacks have run (for sim-throughput
        #: metrics; see the ``simcore`` benchmark).
        self.events_processed = 0
        #: Observability recorder (:mod:`repro.obs`), or ``None``.  The
        #: loop pays one ``is None`` check per event when disabled; the
        #: recorder only *reads* simulation state, so enabling it never
        #: changes simulated time.
        self._obs = None
        #: Array-backed completion calendar (registered by the flow
        #: network), or ``None``.
        self._calendar: Optional[ArrayCalendar] = None
        #: Cost-breakdown collector (``simcore --profile``), or ``None``.
        self._profile: Optional[SimProfile] = None

    @property
    def obs(self):
        """The attached observability recorder, or ``None``."""
        return self._obs

    @obs.setter
    def obs(self, recorder) -> None:
        self._obs = recorder

    @property
    def profile(self) -> Optional[SimProfile]:
        """The attached cost-breakdown collector, or ``None``."""
        return self._profile

    @profile.setter
    def profile(self, collector: Optional[SimProfile]) -> None:
        self._profile = collector

    @property
    def events_retired(self) -> int:
        """Events dispatched plus calendar entries bulk-invalidated.

        The per-object engine popped every superseded completion as an
        explicit no-op, so its ``events_processed`` counted them; the
        array calendar discards them without a pop.  Throughput metrics
        compare like with like by using this total.
        """
        cal = self._calendar
        return self.events_processed + (cal.invalidated if cal is not None
                                        else 0)

    def register_calendar(self, dispatch: Callable, times_of: Callable,
                          valid_of: Callable,
                          settle: Optional[Callable] = None
                          ) -> ArrayCalendar:
        """Attach the array completion calendar (one per environment)."""
        if self._calendar is not None:
            raise SimulationError(
                "environment already has an array calendar; one flow "
                "network per environment")
        self._calendar = ArrayCalendar(self, dispatch, times_of, valid_of,
                                       settle)
        return self._calendar

    def _reserve_eids(self, count: int) -> int:
        """Reserve ``count`` sequence ids, returning the first.

        Bulk reschedules consume one id per flow — the same ids the
        per-object events would have consumed — so surviving calendar
        entries keep a bit-identical (time, seq) order.
        """
        first = self._eid + 1
        self._eid += count
        return first

    @property
    def now(self) -> float:
        """The current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (or ``None``)."""
        return self._active_process

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """Create a pending event to be triggered manually."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition that succeeds once all ``events`` succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition that succeeds once any of ``events`` succeeded."""
        return AnyOf(self, events)

    # -- scheduling & the loop -------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        when = self._queue[0][0] if self._queue else float("inf")
        cal = self._calendar
        # A due object event at the current instant is next whatever
        # the calendar holds: a dirty stage stays unsettled (see step).
        if cal is not None and not (cal.dirty and when <= self._now):
            key = cal.head()
            if key is not None and key[0] < when:
                return key[0]
        return when

    def step(self) -> None:
        """Process the next scheduled event.

        While the calendar holds a dirty stage and an object event is
        due at the current instant, that event runs without settling
        the stage, so the flow network settles once per instant — when
        the clock is about to move — rather than once per event.  A
        staged completion lies at or after the instant that staged it;
        one due at that very instant (a residue under one ulp of the
        clock) then runs after the instant's object events instead of
        in sequence order.
        """
        queue = self._queue
        cal = self._calendar
        if cal is not None and not (cal.dirty and queue
                                    and queue[0][0] <= self._now):
            cal_key = cal.head()
            if cal_key is not None and (
                    not queue or cal_key < (queue[0][0], queue[0][1])):
                prof = self._profile
                if prof is not None:
                    t0 = perf_counter()
                when, slot, token = cal.pop()
                self._now = when
                self.events_processed += 1
                cal.dispatch(slot, token)
                if prof is not None:
                    prof.calendar_s += perf_counter() - t0
                    prof.dispatched += 1
                obs = self._obs
                if obs is not None:
                    obs.engine_stepped(when, len(queue) + len(cal))
                return
        if not queue:
            raise SimulationError("no scheduled events")
        when, _, event = heapq.heappop(queue)
        self._now = when
        self.events_processed += 1
        prof = self._profile
        if prof is not None:
            t0 = perf_counter()
        callbacks, event.callbacks = event.callbacks, None
        if len(callbacks) == 1:
            # The overwhelmingly common case: one waiter (a process
            # resume or a flow-completion handler).
            callbacks[0](event)
        else:
            for callback in callbacks:
                callback(event)
        if prof is not None:
            prof.heap_s += perf_counter() - t0
            prof.dispatched += 1
        if not event._ok and not event.defused:
            raise event._value
        obs = self._obs
        if obs is not None:
            depth = len(queue) if cal is None else len(queue) + len(cal)
            obs.engine_stepped(when, depth)

    def _exhausted(self) -> bool:
        """No object events and no live calendar entries remain."""
        if self._queue:
            return False
        cal = self._calendar
        return cal is None or cal.head() is None

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (an event, a time, or queue exhaustion).

        Returns the value of the ``until`` event, if one was given.
        """
        if until is None:
            if self._calendar is None:
                while self._queue:
                    self.step()
                return None
            while not self._exhausted():
                self.step()
            return None
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if self._exhausted():
                    raise SimulationError(
                        "event queue ran dry before the awaited event fired")
                self.step()
            if not stop._ok:
                raise stop._value
            return stop._value
        deadline = float(until)
        if deadline < self._now:
            raise ValueError(f"until={deadline} lies in the past (now={self._now})")
        while self.peek() <= deadline:
            self.step()
        self._now = deadline
        return None
