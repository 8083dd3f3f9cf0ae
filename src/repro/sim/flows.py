"""Fluid flow network with max-min fair bandwidth allocation.

Every in-flight data transfer is a :class:`Flow` over a *route*: an
ordered list of ``(resource, direction)`` hops.  Whenever the set of
active flows changes, the network re-computes each flow's rate with the
classic progressive-filling (water-filling) algorithm, which yields the
max-min fair allocation subject to every hop's effective capacity.  This
mirrors how concurrent DMA copy streams share links on real multi-GPU
machines closely enough to reproduce the paper's parallel-copy results
(Figures 2-7): flows crossing an uncontended NVSwitch port rate at full
speed, while flows squeezed through a shared PCIe switch or the AC922's
X-Bus split its capacity.

The network is a *fluid* model: between allocation changes each flow
progresses linearly at its rate, so completion times can be scheduled
exactly and re-scheduled whenever the allocation changes.

The implementation is data-oriented, sized for simulations with many
thousands of flow arrivals (see :mod:`repro.sim.solver`):

* per-flow hot state (remaining bytes, rate, cap, completion token)
  lives in the parallel NumPy arrays of a :class:`~repro.sim.solver.FlowTable`;
  the :class:`Flow` objects expose it through properties;
* changes are *marked*, not filled: a start, finish or abort that can
  re-rate other flows records its seeds and stages the completion
  calendar, and the network *settles* — fills and sets the rates —
  once per simulated instant (see *Settling once per instant* below);
* a settle refills only the flows the instant's changes can reach (see
  *Component-scoped refill*), with the dict reference solver for small
  components and the vectorized one
  (:func:`~repro.sim.solver.water_fill_arrays`, bit-identical to the
  reference) for wide ones;
* progress sweeps advance every flow with one vectorized subtraction —
  all active flows share a single last-advanced timestamp;
* completions live in the engine's :class:`~repro.sim.engine.ArrayCalendar`:
  a mark *stages* the whole completion set in O(1) and the calendar
  sorts it once, lazily, when the engine next needs its head.  Stale
  entries are invalidated by token, exactly like the previous
  per-object completion events.

A Python-dict membership index (packed ``(id(resource) << 1 | direction
bit)`` key -> arrival-ordered flow dict) is still maintained: the
observability recorder, the diagnostics in error paths, the reference
solver and the component walk all read it, and keeping it costs
O(route) per transition.

**Settling once per instant.**  Many changes share a simulated instant
(a completion frees a link and its waiter starts the next copy; a fault
aborts every flow on a link), and no byte moves within an instant, so
only the rates the instant ends with matter.  A change therefore only
*marks*: it appends its seeds (the flows it started, finished or
aborted, including flows a catch-up sweep finished) to a pending list
and restages the calendar with fresh tokens and event ids for every
active flow — reserved at the mark, exactly as a fill per change
reserved them, so event order is unchanged.  The network *settles*
(refills the components the pending seeds reach) when the engine is
about to move the clock — the calendar's rebuild asks for it — or when
anything reads a rate (:attr:`Flow.rate`, :meth:`utilization`,
:attr:`delivered`).  The settle's rates equal
those of the last fill it replaces: every fill re-rated the components
its change reached, and the settle re-rates their union over the final
flow set.  Settling early therefore changes no simulated value, which
is why an attached observability recorder, whose hooks read rates at
every transition, simply settles at every mark.  The disjoint fast
paths (a start or finish on resources no other flow crosses) never
mark: a lone flow's rate is exact at once.

**Component-scoped refill.**  Max-min fairness splits exactly over the
connected components of the flow-resource graph: a flow's rate depends
only on the flows it is linked to through shared resources, and on a
cluster most changes touch a handful of node-local copies.  So a settle
walks the membership index from the pending seeds' resources to
collect their components, and refills only those.  Three details keep
the result bit-identical to filling every flow:

* the walk visits *both* directions of every resource, because the
  duplex factor makes a key's capacity depend on its partner key's
  member count even when no flow crosses both;
* each component is filled with flows in flow-table slot order and keys
  in key-table slot order — the order a global fill scans them in — so
  the first-minimum bottleneck choice breaks ties identically.  Every
  freeze a global fill performs inside a component is then the one the
  component's own fill performs next: a bottleneck or rate cap chosen
  elsewhere changes none of this component's shares, and a global
  capped freeze fixes a component's flows at that cap exactly when the
  component's own fill would;
* flows finished by a catch-up sweep are seeds too (including the sweep
  of an abort that found its flow already done), so no neighbour keeps
  a rate a global fill would have replaced.

Each key's effective capacity is memoized on its key slot together with
the two member counts it was computed for (see
:meth:`~repro.sim.solver.KeyTable.capacities`); a settle recomputes it
only for keys whose load changed, and a capacity change the index
cannot see (:meth:`FlowNetwork.requery_capacity`) drops the memo.

Completions are restaged for *every* active flow, not only the
component's.  A scoped restage would recompute untouched flows'
completion times from a later ``now`` — the same instant in exact
arithmetic but not always in floating point — and reorder event ids,
so it would drift from the global schedule by ulps.

A :class:`~repro.sim.engine.SimulationError` raised by a fill (zero
effective capacity) surfaces at the settle: from the rate read or the
engine step that settled.  It leaves the network's indices consistent
but its rates stale; like the previous implementation, callers that
catch it should not keep simulating the affected flows.
"""

from __future__ import annotations

import math
from operator import attrgetter
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.engine import Environment, Event, SimulationError
from repro.sim.resources import Direction, Resource
from repro.sim.solver import (FlowTable, KeyTable, progressive_fill,
                              water_fill_arrays)

Hop = Tuple[Resource, Direction]

#: Relative tolerance when deciding a flow has finished.
_EPSILON_BYTES = 1e-6

#: Component size at or below which a settle fills the component with
#: the dict-walking reference solver; a wider component goes to the
#: vectorized solver, which fills every active flow (the rates outside
#: the component come out unchanged).  Each fill round costs the
#: vectorized solver a flat ~40-60us of NumPy dispatch but the
#: reference only ~2us per flow, so small fills are faster in plain
#: Python; both produce bit-identical rates (pinned by
#: tests/sim/test_solver_properties.py), so the switch is invisible.
_SMALL_FILL_N = 64

_EMPTY_I64 = np.empty(0, dtype=np.int64)


class Flow:
    """One in-flight transfer of ``size`` bytes over a fixed route.

    The flow's :attr:`done` event succeeds (with the flow) when the last
    byte has been delivered.  ``rate_cap`` optionally limits the flow to
    a source/sink-specific rate, e.g. a GPU copy engine's bandwidth.

    While the flow is active its ``remaining`` and ``rate`` live in the
    network's flow table (slot ``_slot``); on finish or abort the final
    values are written back here and the slot is released.
    """

    __slots__ = ("network", "route", "size", "rate_cap", "label",
                 "started_at", "finished_at", "done",
                 "hops", "hop_keys", "resources",
                 "_finish_threshold", "_credited", "_slot", "_rem", "_rate")

    def __init__(
        self,
        network: "FlowNetwork",
        route: Sequence[Hop],
        size: float,
        rate_cap: Optional[float] = None,
        label: str = "",
    ):
        if size < 0:
            raise ValueError(f"flow size must be >= 0, got {size}")
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError(f"rate_cap must be positive, got {rate_cap}")
        self.network = network
        self.route: Tuple[Hop, ...] = tuple(route)
        self.size = float(size)
        self.rate_cap = rate_cap
        self.label = label
        self.started_at = network.env.now
        self.finished_at: Optional[float] = None
        self.done: Event = network.env.event()
        self._finish_threshold = _EPSILON_BYTES * max(self.size, 1.0)
        #: Bytes already credited to the network's delivered counters.
        self._credited = 0.0
        #: Flow-table slot while active; ``None`` once detached.
        self._slot: Optional[int] = None
        self._rem = self.size
        self._rate = 0.0
        # Deduplicated hops, resolved once: `hops` keeps the first
        # occurrence of every (resource, direction); `hop_keys` are the
        # packed integer membership keys; `resources` each distinct
        # resource once, regardless of direction.
        hops: List[Hop] = []
        keys: List[int] = []
        resources: List[Resource] = []
        seen_keys = set()
        seen_rids = set()
        for resource, direction in self.route:
            key = (id(resource) << 1) | (direction is Direction.REV)
            if key not in seen_keys:
                seen_keys.add(key)
                hops.append((resource, direction))
                keys.append(key)
            rid = id(resource)
            if rid not in seen_rids:
                seen_rids.add(rid)
                resources.append(resource)
        self.hops: Tuple[Hop, ...] = tuple(hops)
        self.hop_keys: Tuple[int, ...] = tuple(keys)
        self.resources: Tuple[Resource, ...] = tuple(resources)

    @property
    def remaining(self) -> float:
        """Bytes not yet delivered (as of the last progress sweep).

        Only a sweep moves it, and a sweep settles first, so reading it
        never needs a settle.
        """
        slot = self._slot
        if slot is None:
            return self._rem
        return float(self.network._ft.remaining[slot])

    @property
    def rate(self) -> float:
        """Currently allocated rate in bytes/second."""
        slot = self._slot
        if slot is None:
            return self._rate
        network = self.network
        if network._settle_due:
            network._settle()
        return float(network._ft.rate[slot])

    @property
    def active(self) -> bool:
        """Whether the flow still has bytes to deliver."""
        return self.finished_at is None

    def _detach(self, remaining: float, rate: float) -> None:
        """Freeze final values on the object and release the table slot."""
        self._rem = remaining
        self._rate = rate
        self._slot = None

    def __repr__(self) -> str:
        return (f"<Flow {self.label or id(self)} size={self.size:.3g} "
                f"remaining={self.remaining:.3g} rate={self.rate:.3g}>")


class FlowNetwork:
    """Tracks active flows and keeps their max-min fair rates current."""

    def __init__(self, env: Environment):
        self.env = env
        #: Active flows in arrival order (insertion-ordered dict-as-set).
        self._flows: Dict[Flow, None] = {}
        #: Membership index: packed (resource, direction) key -> the
        #: active flows crossing it, in arrival order.
        self._members: Dict[int, Dict[Flow, None]] = {}
        #: Resources currently crossed by at least one active flow.
        self._resources: Dict[int, Resource] = {}
        #: Per-resource active-flow reference counts (both directions).
        self._refs: Dict[int, int] = {}
        self._delivered: Dict[Tuple[Resource, Direction], float] = {}
        #: Array-of-struct flow and membership-key state (the hot path).
        self._ft = FlowTable()
        self._kt = KeyTable()
        #: Array completion calendar, registered with the engine.
        self._cal = env.register_calendar(
            self._on_completion_slot, self._times_of, self._valid_of,
            self._settle)
        #: Monotone completion-token counter.  Tokens are globally
        #: unique per (re)schedule, so a stale calendar entry can never
        #: collide with a later assignment — not even across table
        #: compactions that renumber slots.
        self._next_token = 1
        #: Simulated time of the last full advancement sweep.  Every
        #: active flow is advanced at every sweep, so one timestamp
        #: serves them all (the invariant the vectorized sweep needs).
        self._advanced_at = -math.inf
        #: Whether a flow may already sit below its finish threshold
        #: (forces the next sweep even with no time elapsed).
        self._may_have_finished = False
        #: Whether a fault factor may have changed since the last
        #: settle (set by :meth:`requery_capacity`).  Gates the
        #: ``refresh_faults`` sweep: on a healthy machine no key ever
        #: needs re-reading, so the per-settle cost is one flag test
        #: instead of an O(alive keys) Python loop.
        self._faults_dirty = False
        #: Whether a change was marked since the last settle; its seeds
        #: (flows started, finished or aborted), and whether a capacity
        #: change asks for every flow to be refilled.
        self._settle_due = False
        self._pending: List[Flow] = []
        self._refill_all = False
        #: Allocation statistics (for the ``simcore`` benchmark);
        #: ``full_reallocations`` counts settles that refill flows.
        self.full_reallocations = 0
        self.fast_starts = 0
        self.fast_finishes = 0
        self.batched_starts = 0
        self.completion_events = 0
        #: Flows removed before completion (faults, timeouts, interrupts).
        self.aborted_flows = 0
        #: Observability recorder (:mod:`repro.obs`), or ``None``.  Every
        #: hook below is gated on a plain ``is None`` check so a network
        #: without observers pays one pointer test per transition; the
        #: recorder only reads, so rates and completion times are
        #: bit-identical with it attached.
        self.obs = None

    # -- public API -------------------------------------------------------
    def start_flow(
        self,
        route: Sequence[Hop],
        size: float,
        rate_cap: Optional[float] = None,
        label: str = "",
    ) -> Flow:
        """Begin transferring ``size`` bytes along ``route``.

        Returns the new :class:`Flow`; wait on ``flow.done`` for
        completion.  Zero-byte flows complete immediately.
        """
        flow = Flow(self, route, size, rate_cap=rate_cap, label=label)
        if flow.size <= 0.0:
            flow.finished_at = self.env.now
            flow._rem = 0.0
            flow.done.succeed(flow)
            return flow
        if not flow.route and flow.rate_cap is None:
            raise SimulationError(
                f"flow {label!r} has neither a route nor a rate cap; "
                "its rate would be unbounded")
        finished = self._advance_all()
        disjoint = not finished and not self._shares_resource([flow])
        self._insert(flow)
        if flow.size <= flow._finish_threshold:
            # Sub-epsilon (but non-zero) flow: make sure the next sweep
            # picks it up even if no simulated time passes first.
            self._may_have_finished = True
        if disjoint:
            self._allocate_single(flow)
        else:
            finished.append(flow)
            self._mark(finished)
        obs = self.obs
        if obs is not None:
            obs.flow_started(self, flow)
            obs.rates_changed(self)
        return flow

    def start_flows(
        self,
        requests: Sequence[Tuple[Sequence[Hop], float,
                                 Optional[float], str]],
    ) -> List[Flow]:
        """Start several flows at one instant with a *single* mark.

        ``requests`` is a sequence of ``(route, size, rate_cap, label)``
        tuples.  Semantically this equals N :meth:`start_flow` calls at
        the same simulated instant — the final max-min allocation over
        the combined flow set is identical — but the calendar is
        restaged once instead of once per arrival.  The cross-node
        exchange of the hierarchical sort launches whole waves of
        fabric flows this way.  Returns the flows in request order.
        """
        finished = self._advance_all()
        flows: List[Flow] = []
        started: List[Flow] = []
        for route, size, rate_cap, label in requests:
            flow = Flow(self, route, size, rate_cap=rate_cap, label=label)
            flows.append(flow)
            if flow.size <= 0.0:
                flow.finished_at = self.env.now
                flow._rem = 0.0
                flow.done.succeed(flow)
                continue
            if not flow.route and flow.rate_cap is None:
                raise SimulationError(
                    f"flow {label!r} has neither a route nor a rate cap; "
                    "its rate would be unbounded")
            self._insert(flow)
            if flow.size <= flow._finish_threshold:
                self._may_have_finished = True
            started.append(flow)
        if started:
            self.batched_starts += 1
            self._mark(finished + started)
        obs = self.obs
        if obs is not None:
            for flow in started:
                obs.flow_started(self, flow)
            if started:
                obs.rates_changed(self)
        return flows

    def transfer(self, route: Sequence[Hop], size: float,
                 rate_cap: Optional[float] = None, label: str = ""):
        """Process-style helper: ``yield from network.transfer(...)``."""
        flow = self.start_flow(route, size, rate_cap=rate_cap, label=label)
        yield flow.done
        return flow

    @property
    def active_flows(self) -> List[Flow]:
        """Snapshot of the currently active flows, in arrival order."""
        return list(self._flows)

    def flows_crossing(self, resource: Resource) -> List[Flow]:
        """Active flows crossing ``resource`` in either direction."""
        rid2 = id(resource) << 1
        seen: Dict[Flow, None] = {}
        for key in (rid2, rid2 | 1):
            bucket = self._members.get(key)
            if bucket:
                for flow in bucket:
                    seen[flow] = None
        return list(seen)

    def abort_flow(self, flow: Flow, exc: Optional[BaseException] = None):
        """Remove an active flow before its last byte is delivered.

        Progress up to *now* is credited to the delivered counters, the
        flow leaves the network (surviving flows are re-rated), and any
        scheduled completion is invalidated via the completion token.
        With ``exc`` the flow's ``done`` event fails with it (pre-defused,
        so a waiter that already raced past — e.g. an ``AnyOf`` timeout —
        does not crash the environment); without, ``done`` stays pending
        and the caller is expected to stop waiting on it.

        A flow that already finished (or reaches its finish threshold in
        the catch-up sweep at this very instant) is left untouched.
        """
        if not flow.active:
            return
        finished = self._advance_all()
        if not flow.active:
            # The catch-up sweep finished it: nothing to abort, but the
            # flows it and its sweep-mates shared resources with must
            # be re-rated like after any finish.
            if self._shares_resource(finished):
                self._mark(finished)
                if self.obs is not None:
                    self.obs.rates_changed(self)
            return
        del self._flows[flow]
        self._remove(flow)
        ft = self._ft
        slot = flow._slot
        remaining = float(ft.remaining[slot])
        partial = flow.size - remaining - flow._credited
        if partial > 0:
            self._credit(flow, partial)
        flow.finished_at = self.env.now
        ft.objs[slot] = None
        flow._detach(remaining, 0.0)
        self.aborted_flows += 1
        if exc is not None:
            flow.done.fail(exc)
            flow.done.defused = True
        if self._flows:
            finished.append(flow)
            self._mark(finished)
        obs = self.obs
        if obs is not None:
            obs.flow_aborted(self, flow)
            obs.rates_changed(self)

    def requery_capacity(self) -> None:
        """Re-rate every active flow after an external capacity change.

        Called when a resource's effective capacity changed for reasons
        the membership index cannot see — e.g. the fault injector
        setting a :meth:`~repro.sim.resources.Resource.set_fault_factor`
        degradation window.
        """
        self._faults_dirty = True
        self._advance_all()
        if self._flows:
            self._mark(None)
        if self.obs is not None:
            self.obs.rates_changed(self)

    @property
    def delivered(self) -> Dict[Tuple[Resource, Direction], float]:
        """Total bytes delivered over each resource direction (for traces).

        Progress of *active* flows is accounted lazily — reading this
        property credits every flow's uncredited progress first, so the
        returned counters are exact as of the current simulated time.
        """
        if self._settle_due:
            self._settle()
        now = self.env.now
        ft = self._ft
        elapsed = now - self._advanced_at
        for flow in self._flows:
            slot = flow._slot
            rate = float(ft.rate[slot])
            rem = float(ft.remaining[slot])
            progress = flow.size - rem - flow._credited
            if elapsed > 0 and rate > 0:
                progress += min(rate * elapsed, rem)
            if progress > 0:
                self._credit(flow, progress)
        return self._delivered

    def _credit(self, flow: Flow, progress: float) -> None:
        """Attribute ``progress`` bytes to every hop of ``flow``."""
        delivered = self._delivered
        for hop in flow.route:
            delivered[hop] = delivered.get(hop, 0.0) + progress
        flow._credited += progress

    def utilization(self, resource: Resource, direction: Direction) -> float:
        """Aggregate current rate crossing ``resource`` in ``direction``."""
        key = (id(resource) << 1) | (direction is Direction.REV)
        flows_here = self._members.get(key)
        if not flows_here:
            return 0.0
        total = 0.0
        for flow in flows_here:
            total += flow.rate
        return total

    # -- membership index -------------------------------------------------
    def _insert(self, flow: Flow) -> None:
        self._flows[flow] = None
        members = self._members
        for key in flow.hop_keys:
            bucket = members.get(key)
            if bucket is None:
                members[key] = {flow: None}
            else:
                bucket[flow] = None
        refs = self._refs
        resources = self._resources
        for resource in flow.resources:
            rid = id(resource)
            count = refs.get(rid, 0)
            if count == 0:
                resources[rid] = resource
            refs[rid] = count + 1
        kt = self._kt
        key_slots = [kt.add_member(key, resource)
                     for (resource, _d), key in zip(flow.hops,
                                                    flow.hop_keys)]
        flow._slot = self._ft.insert(flow, key_slots)

    def _remove(self, flow: Flow) -> None:
        members = self._members
        for key in flow.hop_keys:
            bucket = members[key]
            del bucket[flow]
            if not bucket:
                del members[key]
        refs = self._refs
        for resource in flow.resources:
            rid = id(resource)
            count = refs[rid] - 1
            if count:
                refs[rid] = count
            else:
                del refs[rid]
                del self._resources[rid]
        kt = self._kt
        for key in flow.hop_keys:
            kt.remove_member(key)
        self._ft.deactivate(flow._slot)

    # -- calendar callbacks ----------------------------------------------
    def _times_of(self, slots: np.ndarray) -> np.ndarray:
        ft = self._ft
        return self.env._now + ft.remaining[slots] / ft.rate[slots]

    def _valid_of(self, slots: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        ft = self._ft
        return ft.active[slots] & (ft.token[slots] == tokens)

    # -- internals --------------------------------------------------------
    def _advance_all(self) -> List[Flow]:
        """Account progress of every flow since the last sweep.

        Returns the flows that reached (epsilon-)completion and were
        finished in the process.

        Delivered-bytes accounting is *not* done here — progress is
        credited lazily (on finish, or when :attr:`delivered` is read),
        so the sweep is one vectorized subtraction.  Sweeps repeated at
        one simulated instant short-circuit.  A sweep that does run
        settles first: it reads the rates, and a flow it finishes keeps
        its final one.
        """
        now = self.env.now
        if now == self._advanced_at and not self._may_have_finished:
            return []
        if self._settle_due:
            self._settle()
        prof = self.env._profile
        if prof is not None:
            t0 = perf_counter()
        ft = self._ft
        act = ft.active_slots()
        finished: List[Flow] = []
        if len(act):
            elapsed = now - self._advanced_at
            if elapsed > 0:
                remaining = ft.remaining
                moved = np.minimum(ft.rate[act] * elapsed, remaining[act])
                remaining[act] -= moved
            below = ft.remaining[act] <= ft.threshold[act]
            if below.any():
                finished = [ft.objs[int(s)] for s in act[below]]
        self._advanced_at = now
        self._may_have_finished = False
        if prof is not None:
            prof.advance_s += perf_counter() - t0
        for flow in finished:
            self._finish(flow)
        return finished

    def _finish(self, flow: Flow) -> None:
        if flow in self._flows:
            del self._flows[flow]
            self._remove(flow)
        if flow.finished_at is None:
            ft = self._ft
            slot = flow._slot
            if slot is not None:
                finale = (flow.size - float(ft.remaining[slot])
                          - flow._credited)
                rate = float(ft.rate[slot])
                ft.objs[slot] = None
                flow._detach(0.0, rate)
            else:
                finale = flow.size - flow._rem - flow._credited
                flow._rem = 0.0
            if finale > 0:
                self._credit(flow, finale)
            flow.finished_at = self.env.now
            flow.done.succeed(flow)
            obs = self.obs
            if obs is not None:
                obs.flow_retired(self, flow)

    def _on_completion_slot(self, slot: int, token: int) -> None:
        """A scheduled completion fired (dispatched by the calendar)."""
        ft = self._ft
        if not ft.active[slot] or ft.token[slot] != token:
            return  # superseded by a later reallocation
        flow = ft.objs[slot]
        self.completion_events += 1
        finished = self._advance_all()
        if flow.active:
            # Numerical slack: force-finish, the residual is < epsilon.
            self._finish(flow)
            finished.append(flow)
        if self._shares_resource(finished):
            # A surviving flow shares a resource with a finished one;
            # its effective capacity changed.
            self._mark(finished)
            if self.obs is not None:
                self.obs.rates_changed(self)
            return
        # Disjoint removal: every surviving flow keeps its rate and its
        # already-scheduled completion.
        self.fast_finishes += 1
        if self.obs is not None:
            # Even without a reallocation the finished flows' links
            # dropped their contribution — refresh the link gauges.
            self.obs.rates_changed(self)

    def _shares_resource(self, flows: List[Flow]) -> bool:
        """Whether an active flow crosses a resource of ``flows``."""
        refs = self._refs
        return any(refs.get(id(resource), 0)
                   for flow in flows for resource in flow.resources)

    def _allocate_single(self, flow: Flow) -> None:
        """Fast path: rate a flow whose resources nobody else crosses.

        The flow's max-min rate is then simply the minimum effective
        capacity along its (deduplicated) hops, further limited by its
        rate cap; no other flow's allocation changes.
        """
        members = self._members
        rate = math.inf
        for (resource, direction), key in zip(flow.hops, flow.hop_keys):
            other_bucket = members.get(key ^ 1)
            cap = resource.effective_capacity(
                direction, 1, 1 if other_bucket else 0)
            if cap < rate:
                rate = cap
        if flow.rate_cap is not None and flow.rate_cap < rate:
            rate = flow.rate_cap
        if rate <= 0 or math.isinf(rate):
            raise SimulationError(
                f"flow {flow.label!r} was allocated zero bandwidth")
        ft = self._ft
        slot = flow._slot
        ft.rate[slot] = rate
        self.fast_starts += 1
        token = self._next_token
        self._next_token = token + 1
        ft.token[slot] = token
        eid = self.env._reserve_eids(1)
        delay = float(ft.remaining[slot]) / rate
        self._cal.push(self.env._now + delay, eid, slot, token)

    def _component(self, seeds: List[Flow],
                   seen: Optional[set] = None) -> Optional[List[Flow]]:
        """Active flows a change to ``seeds`` can re-rate, in slot order.

        Walks the membership index from the seeds' resources.  Both
        directions of every resource are visited: the duplex factor
        makes a key's capacity depend on its partner's member count, so
        opposite-direction flows are coupled although they share no key.
        Seeds may be finished or aborted flows (already out of the
        index); only their resources matter.  Resources (and route-less
        flows) in ``seen`` were collected by an earlier walk and are
        skipped; the walk adds what it visits.  Returns ``None`` as soon
        as the component outgrows :data:`_SMALL_FILL_N` (a wide
        component is filled over every flow anyway), and stops early
        once it covers every active flow.
        """
        members = self._members
        live = self._flows
        n_live = len(live)
        if seen is None:
            seen = set()
        comp: Dict[Flow, None] = {}
        for flow in seeds:
            # Route-less (rate-capped) flows form their own component.
            if not flow.hop_keys and flow in live and flow not in seen:
                seen.add(flow)
                comp[flow] = None
        stack = list(seeds)
        while stack:
            for key in stack.pop().hop_keys:
                rid2 = key & ~1
                if rid2 in seen:
                    continue
                seen.add(rid2)
                for bucket in (members.get(rid2), members.get(rid2 | 1)):
                    if not bucket:
                        continue
                    if len(bucket) > _SMALL_FILL_N:
                        return None
                    for other in bucket:
                        if other not in comp:
                            comp[other] = None
                            stack.append(other)
                    if len(comp) > _SMALL_FILL_N:
                        return None
                    if len(comp) == n_live:
                        return list(live)
        return sorted(comp, key=attrgetter("_slot"))

    def _mark(self, seeds: Optional[List[Flow]]) -> None:
        """Record a change the next settle must refill; restage.

        ``seeds`` are the flows that started, finished or were aborted
        (``None`` refills every active flow, for capacity changes the
        membership index cannot see).  Every active flow's completion
        is restaged with fresh tokens and event ids, reserved now, so
        event order is what a fill per change gave; the rates follow at
        the settle.
        """
        if not self._settle_due:
            self._settle_due = True
            self.full_reallocations += 1
        if seeds is None:
            self._refill_all = True
        else:
            self._pending.extend(seeds)
        ft, kt = self._ft, self._kt
        # Compact sparsely populated tables.  Stale calendar entries may
        # survive a renumbering, but globally unique tokens make them
        # inert no-ops wherever they land.
        lut = kt.compact() if kt.top >= 64 and kt.live * 2 < kt.top else None
        if ft.top >= 128 and ft.live * 2 < ft.top:
            ft.compact()
        if lut is not None:
            ft.remap_keys(lut)
        act = ft.active_slots()
        n = len(act)
        if n == 0:
            self._cal.stage(act, _EMPTY_I64, _EMPTY_I64)
        else:
            token0 = self._next_token
            self._next_token = token0 + n
            tokens = np.arange(token0, token0 + n, dtype=np.int64)
            ft.token[act] = tokens
            eid0 = self.env._reserve_eids(n)
            self._cal.stage(act, np.arange(eid0, eid0 + n, dtype=np.int64),
                            tokens)
        if self.obs is not None:
            # The recorder's hooks read rates at every transition.
            self._settle()

    def _settle(self) -> None:
        """Refill what the changes marked since the last settle reach."""
        if not self._settle_due:
            return
        seeds = None if self._refill_all else self._pending
        self._settle_due = False
        self._pending = []
        self._refill_all = False
        if self._flows:
            self._reallocate(seeds)

    def _reallocate(self, seeds: Optional[List[Flow]]) -> None:
        """Refill the components ``seeds`` touch (``None``: every flow).

        Max-min fairness splits exactly over resource-connected
        components, so flows outside the seeds' components keep their
        rates; each component is filled on its own (see the module
        docstring for why that is bit-identical to a global fill).
        """
        ft, kt = self._ft, self._kt
        # Fault factors can change out-of-band (the injector); re-read
        # them so the cached capacities match what the reference would
        # compute live.  The injector's contract is to follow every
        # set_fault_factor with requery_capacity, which raises the
        # dirty flag — so a healthy run never pays the sweep, and a
        # faulted one pays it once per capacity change, not once per
        # settle.  (add_member reads the live factor at insert, so new
        # keys are correct without it.)
        if self._faults_dirty:
            kt.refresh_faults()
            self._faults_dirty = False
        prof = self.env._profile
        if prof is not None:
            t0 = perf_counter()
        n_live = len(self._flows)
        comps: Optional[List[List[Flow]]] = []
        if seeds is None:
            seeds = list(self._flows)
        seen: set = set()
        for seed in seeds:
            comp = self._component([seed], seen)
            if comp is None or len(comp) == n_live:
                # Too wide for the reference, or every flow: nothing
                # else to collect.
                comps = None if comp is None else [comp]
                break
            if comp:
                comps.append(comp)
        filled = 0
        if comps is None:
            # The vectorized solver over every flow gives the wide
            # component's rates and leaves everyone else's unchanged.
            act = ft.active_slots()
            rates = water_fill_arrays(ft, kt, act, members=self._members,
                                      profile=prof)
            bad = rates <= 0.0
            if bad.any():
                self._zero_bandwidth(ft.objs[int(act[int(np.argmax(bad))])])
            ft.rate[act] = rates
            filled = len(act)
        else:
            members, rate = self._members, ft.rate
            for comp in comps:
                keys = sorted({key for flow in comp for key in flow.hop_keys},
                              key=kt.slot_of.__getitem__)
                scoped = {key: members[key] for key in keys}
                by_flow = progressive_fill(comp, scoped, self._resources,
                                           kt.capacities(scoped))
                for flow in comp:
                    value = by_flow[flow]
                    if value <= 0.0:
                        self._zero_bandwidth(flow)
                    rate[flow._slot] = value
                filled += len(comp)
        if prof is not None:
            prof.fill_s += perf_counter() - t0
            prof.fills += 1
            prof.fill_flows += filled
            prof.wide_fills += comps is None

    @staticmethod
    def _zero_bandwidth(flow: Flow) -> None:
        raise SimulationError(
            f"flow {flow.label!r} was allocated zero bandwidth")
