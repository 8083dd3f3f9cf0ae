"""The fault injector: plays a :class:`~repro.faults.plan.FaultPlan`
against a live machine.

Installation (via :meth:`repro.runtime.context.Machine.install_faults`)
resolves every event's symbolic target against the machine's topology
and spawns one driver process per event.  The injector then acts purely
through existing mechanisms:

* capacity windows (degradation, stragglers) go through
  :meth:`~repro.sim.resources.Resource.set_fault_factor` plus a
  :meth:`~repro.sim.flows.FlowNetwork.requery_capacity`, so the
  incremental water-fill re-shares the degraded capacity;
* link-down windows kill crossing flows with
  :class:`~repro.errors.TransientTransferError` and publish the down
  set for the resilient router in :mod:`repro.runtime.memcpy`;
* engine stalls queue on the same DMA-engine semaphores copies use;
* every fault is appended to the machine trace (``Fault:<kind>``
  spans) and to the injector's :attr:`timeline` for reproducibility
  checks.

All randomness (per-flow transient kills) comes from one stream seeded
by the plan, so a given ``(plan, workload)`` pair replays identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import (
    DeviceFaultError,
    NodeFaultError,
    TransientTransferError,
)
from repro.faults.events import (
    CopyEngineStall,
    GpuFail,
    LinkDegradation,
    LinkDown,
    LinkFlap,
    NodeDown,
    StragglerGpu,
    SwitchDown,
    TransientTransfer,
)
from repro.faults.plan import FaultPlan
from repro.faults.policy import LinkHealth
from repro.hw.cluster import ClusterSpec
from repro.sim.engine import Event, SimulationError
from repro.sim.flows import Flow
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import Machine

#: Flow-label prefixes of copies whose waiters run the resilient retry
#: loop in ``copy_async``; only these are eligible for injected
#: transient kills (killing e.g. a CPU-merge flow would not model a
#: transfer fault, it would just crash the workload).
_RESILIENT_PREFIXES = ("HtoD:", "DtoH:", "PtoP:", "HtoH:")


@dataclass
class FaultRecord:
    """One fault occurrence on the injector's timeline."""

    kind: str
    target: str
    start: float
    #: ``None`` while the window is still open (or for permanent faults).
    end: Optional[float] = None

    def key(self) -> Tuple[str, str, float, Optional[float]]:
        """Hashable identity for reproducibility comparisons."""
        return (self.kind, self.target, self.start, self.end)


class FaultInjector:
    """Drives one fault plan against one machine."""

    def __init__(self, machine: "Machine", plan: FaultPlan):
        self.machine = machine
        self.env = machine.env
        self.plan = plan
        #: Observability recorder (wired by the machine); ``None`` keeps
        #: fault windows untraced beyond the machine trace.
        self.obs = None
        #: Chronological record of every fault that actually fired.
        self.timeline: List[FaultRecord] = []
        #: Down-window bookkeeping: id(resource) -> open window count.
        self._down: Dict[int, int] = {}
        #: id(resource) -> event fired when its last down window ends.
        self._restored: Dict[int, Event] = {}
        #: id(resource) -> stack of active capacity multipliers.
        self._factors: Dict[int, List[float]] = {}
        #: GPUs hard-failed so far (runtime view; the plan is the truth
        #: for :meth:`failed_gpu_ids`, this powers the kill sweep).
        self._failed: Set[int] = set()
        #: gpu id -> event fired the instant the GPU hard-fails (created
        #: lazily by :meth:`fail_event`; kernels race against it).
        self._fail_events: Dict[int, Event] = {}
        #: Cluster nodes hard-lost so far (runtime view; the plan is the
        #: truth for :meth:`failed_node_ids`).
        self._dead_nodes: Set[int] = set()
        #: id(resource) -> health score of every link the plan has ever
        #: taken down (fed by all down windows: link down, switch down,
        #: flaps).  Quarantined links are avoided like down links.
        self.link_health: Dict[int, LinkHealth] = {}
        self._by_name = self._resource_catalog()
        self._rng = np.random.default_rng(plan.seed)
        # Backoff jitter draws come from their own stream so enabling
        # jitter never perturbs the per-flow transient-kill draws (the
        # two would otherwise interleave and break replay comparisons
        # across policies).
        self._jitter_rng = np.random.default_rng(
            (plan.seed if plan.seed is not None else 0) ^ 0x1177E4)
        # Resolve every symbolic target eagerly so a typo in a plan
        # fails at install time, not halfway through a chaos run.
        # Unknown names and out-of-range GPU ids are plan bugs, not
        # topology or runtime-API misuse, so both raise SimulationError
        # (negative ids would otherwise silently hit Python's negative
        # indexing and fault the *wrong* GPU).
        for event in plan.events:
            if isinstance(event, (LinkDegradation, LinkDown, LinkFlap)):
                self._resource(event.resource)
            elif isinstance(event, (CopyEngineStall, StragglerGpu, GpuFail)):
                if not 0 <= event.gpu < machine.num_gpus:
                    raise SimulationError(
                        f"fault plan references unknown GPU {event.gpu} "
                        f"on {machine.spec.name} "
                        f"({machine.num_gpus} GPUs) in {event!r}")
            elif isinstance(event, NodeDown):
                spec = machine.spec
                if not isinstance(spec, ClusterSpec):
                    raise SimulationError(
                        f"fault plan schedules {event!r} but "
                        f"{spec.name} is a single machine, not a "
                        f"cluster; NodeDown needs a ClusterSpec")
                if event.node >= spec.num_nodes:
                    raise SimulationError(
                        f"fault plan references unknown node "
                        f"{event.node} on {spec.name} "
                        f"({spec.num_nodes} nodes) in {event!r}")
            elif isinstance(event, SwitchDown):
                self._switch_target(event.switch)
        for event in plan.events:
            self.env.process(self._drive(event))

    # -- target resolution ------------------------------------------------
    def _resource_catalog(self) -> Dict[str, Resource]:
        catalog: Dict[str, Resource] = {}
        topology = self.machine.spec.topology
        for edge in topology.edges:
            catalog.setdefault(edge.resource.name, edge.resource)
        for node in topology.nodes:
            if node.memory is not None:
                catalog.setdefault(node.memory.name, node.memory)
        return catalog

    def _resource(self, name: str) -> Resource:
        try:
            return self._by_name[name]
        except KeyError:
            raise SimulationError(
                f"fault plan names unknown resource {name!r} on "
                f"{self.machine.spec.name} (known: "
                f"{', '.join(sorted(self._by_name))})") from None

    def _switch_target(self, switch) -> Tuple[str, List[Resource]]:
        """Resolve a :class:`SwitchDown` target to its attached links.

        Accepts an index into the cluster topology's ordered
        fabric-switch list or the switch's vertex name; returns the
        name plus every distinct link resource attached to the switch.
        """
        topology = self.machine.spec.topology
        switches = getattr(topology, "fabric_switches", ())
        if not switches:
            raise SimulationError(
                f"fault plan schedules SwitchDown({switch!r}) but "
                f"{self.machine.spec.name} has no fabric switches "
                "(SwitchDown needs a cluster fabric)")
        if isinstance(switch, int):
            if not 0 <= switch < len(switches):
                raise SimulationError(
                    f"fault plan references fabric switch index "
                    f"{switch} but {self.machine.spec.name} has "
                    f"{len(switches)} switches "
                    f"({', '.join(switches)})")
            name = switches[switch]
        else:
            if switch not in switches:
                raise SimulationError(
                    f"fault plan names unknown fabric switch "
                    f"{switch!r} on {self.machine.spec.name} (known: "
                    f"{', '.join(switches)})")
            name = switch
        resources: List[Resource] = []
        seen: Set[int] = set()
        for edge in topology.edges:
            if ((edge.a == name or edge.b == name)
                    and id(edge.resource) not in seen):
                seen.add(id(edge.resource))
                resources.append(edge.resource)
        return name, resources

    # -- queries used by the resilient runtime and the sorts ---------------
    @property
    def down_ids(self) -> Dict[int, int]:
        """``id(resource)`` of every currently-down resource (read-only)."""
        return self._down

    def restored_event(self, rid: int) -> Event:
        """Event firing when resource ``rid`` leaves its down window(s).

        Already-up resources get an already-succeeded event, so callers
        can ``yield`` it unconditionally.
        """
        if rid not in self._down:
            event = self.env.event()
            event.succeed()
            return event
        return self._restored[rid]

    def failed_gpu_ids(self) -> Set[int]:
        """GPUs hard-failed at or before the current simulated time.

        A :class:`NodeDown` counts as one :class:`GpuFail` per GPU of
        the node, so cluster sorts planning a working set see the whole
        fault domain through this one query.
        """
        now = self.env.now
        failed = {event.gpu for event in self.plan.events
                  if isinstance(event, GpuFail) and event.at <= now}
        spec = self.machine.spec
        if isinstance(spec, ClusterSpec):
            for event in self.plan.events:
                if isinstance(event, NodeDown) and event.at <= now:
                    failed.update(spec.gpu_ids_of_node(event.node))
        return failed

    def failed_node_ids(self) -> Set[int]:
        """Cluster nodes lost at or before the current simulated time."""
        now = self.env.now
        return {event.node for event in self.plan.events
                if isinstance(event, NodeDown) and event.at <= now}

    def check_host(self, numa: int) -> None:
        """Raise :class:`~repro.errors.NodeFaultError` if the NUMA
        domain's node is dead.

        The host-side analogue of :meth:`check_device`: copies touching
        a lost node's host memory fail fast instead of parking on NIC
        links that will never come back.  A no-op on single machines.
        """
        if not self._dead_nodes:
            return
        spec = self.machine.spec
        if not isinstance(spec, ClusterSpec):
            return
        node = spec.node_of_numa(numa)
        if node in self._dead_nodes:
            raise NodeFaultError(
                f"node {node} of {spec.name} is down; host memory "
                f"mem{numa} is unreachable")

    def quarantined_ids(self) -> Set[int]:
        """``id(resource)`` of every link currently quarantined.

        Links whose health score fell below the policy's low watermark
        (flapping links, repeatedly-downed switches).  The resilient
        router treats these like down links *when a detour exists*;
        quarantine is advisory and never strands a copy's only route.
        """
        if not self.link_health:
            return set()
        now = self.env.now
        return {rid for rid, health in self.link_health.items()
                if health.is_quarantined(now)}

    def backoff_jitter_draw(self) -> float:
        """One uniform [0, 1) draw from the seeded backoff-jitter stream."""
        return float(self._jitter_rng.random())

    def is_failed(self, gpu: int) -> bool:
        """Whether ``gpu`` has hard-failed by now (runtime view)."""
        return gpu in self._failed

    def fail_event(self, gpu: int) -> Event:
        """Event fired the instant ``gpu`` hard-fails.

        Stays pending forever for GPUs that never fail; already-dead
        GPUs get an already-succeeded event.
        """
        event = self._fail_events.get(gpu)
        if event is None:
            event = self._fail_events[gpu] = self.env.event()
            if gpu in self._failed:
                event.succeed()
        return event

    def check_device(self, device) -> None:
        """Raise :class:`~repro.errors.DeviceFaultError` if dead.

        Called by the runtime before touching a device (new copies,
        allocations, kernel launches) so work issued *after* a GPU
        fails errors out instead of silently completing on a corpse.
        """
        if device.id in self._failed:
            raise DeviceFaultError(
                f"{device.name} has hard-failed; no new work can be "
                "issued to it")

    def run_on_device(self, device, duration):
        """Process: a kernel's timed section, racing the device's death.

        Replaces the plain ``timeout(duration)`` of kernel launches when
        a fault plan is installed: if the device hard-fails before the
        kernel retires, the launch fails with
        :class:`~repro.errors.DeviceFaultError` (its functional effect
        never applies — the data on the dead GPU is gone).
        """
        self.check_device(device)
        timeout = self.env.timeout(duration)
        died = self.fail_event(device.id)
        yield self.env.any_of([timeout, died])
        if device.id in self._failed and not timeout.triggered:
            raise DeviceFaultError(
                f"{device.name} failed {self.env.now:.6f}s into a "
                "running kernel")

    def straggler_factor(self, gpu: int) -> float:
        """Largest straggler slowdown active on ``gpu`` right now."""
        now = self.env.now
        factor = 1.0
        for event in self.plan.events:
            if (isinstance(event, StragglerGpu) and event.gpu == gpu
                    and event.at <= now < event.at + event.duration):
                factor = max(factor, event.slowdown)
        return factor

    def on_flow_started(self, flow: Flow) -> None:
        """Arm the per-flow transient-failure draw for a resilient copy.

        Called by ``copy_async`` for every flow it starts; one uniform
        draw decides failure, a second places the failure at a fraction
        of the flow's current expected lifetime.
        """
        probability = self.plan.transient_failure_prob
        if probability <= 0.0 or not flow.active:
            return
        if self._rng.random() >= probability:
            return
        fraction = float(self._rng.random())
        self.env.process(self._kill_flow_later(flow, fraction))

    def downtime_between(self, start: float, end: float) -> float:
        """Seconds in ``[start, end]`` with at least one fault window open.

        The union (not the sum) of all timeline windows clipped to the
        interval; still-open windows extend to ``end``.
        """
        intervals = []
        for record in self.timeline:
            hi = end if record.end is None else min(record.end, end)
            lo = max(record.start, start)
            if hi > lo:
                intervals.append((lo, hi))
        intervals.sort()
        total = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                total += hi - lo
                cursor = hi
        return total

    def timeline_keys(self) -> List[Tuple[str, str, float, Optional[float]]]:
        """The timeline as plain tuples (for determinism assertions)."""
        return [record.key() for record in self.timeline]

    # -- event drivers -----------------------------------------------------
    def _drive(self, event):
        delay = event.at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        if isinstance(event, LinkDegradation):
            yield from self._run_degradation(event)
        elif isinstance(event, LinkDown):
            yield from self._run_link_down(event)
        elif isinstance(event, LinkFlap):
            yield from self._run_link_flap(event)
        elif isinstance(event, SwitchDown):
            yield from self._run_switch_down(event)
        elif isinstance(event, CopyEngineStall):
            yield from self._run_engine_stall(event)
        elif isinstance(event, StragglerGpu):
            yield from self._run_straggler(event)
        elif isinstance(event, GpuFail):
            self._run_gpu_fail(event)
        elif isinstance(event, NodeDown):
            self._run_node_down(event)
        elif isinstance(event, TransientTransfer):
            self._run_transient(event)
        else:  # pragma: no cover - future event kinds
            raise TypeError(f"unknown fault event {event!r}")

    def _open(self, kind: str, target: str) -> FaultRecord:
        """Start a window record; traced when :meth:`_close` is called."""
        record = FaultRecord(kind=kind, target=target, start=self.env.now)
        self.timeline.append(record)
        if self.obs is not None:
            self.obs.fault_opened(kind, target, self.env.now)
        return record

    def _close(self, record: FaultRecord) -> None:
        record.end = self.env.now
        self.machine.trace.record(f"Fault:{record.kind}", record.target,
                                  record.start, end=record.end)
        if self.obs is not None:
            self.obs.fault_closed(record.kind, record.target, record.start,
                                  record.end)

    def _instant(self, kind: str, target: str) -> None:
        now = self.env.now
        self.timeline.append(FaultRecord(kind=kind, target=target,
                                         start=now, end=now))
        self.machine.trace.record(f"Fault:{kind}", target, now, end=now)
        if self.obs is not None:
            self.obs.fault_opened(kind, target, now, instant=True)

    def _apply_factor(self, resource: Resource, factor: float) -> None:
        stack = self._factors.setdefault(id(resource), [])
        stack.append(factor)
        self._refresh_factor(resource, stack)

    def _lift_factor(self, resource: Resource, factor: float) -> None:
        stack = self._factors[id(resource)]
        stack.remove(factor)
        self._refresh_factor(resource, stack)

    def _refresh_factor(self, resource: Resource,
                        stack: List[float]) -> None:
        if not stack:
            # Restore *exactly* 1.0 (no float drift from multiply/divide
            # round trips) so post-fault time stays bit-identical to a
            # never-faulted run.
            resource.set_fault_factor(1.0)
        else:
            product = 1.0
            for factor in stack:
                product *= factor
            resource.set_fault_factor(product)
        self.machine.net.requery_capacity()

    def _run_degradation(self, event: LinkDegradation):
        resource = self._resource(event.resource)
        record = self._open("degradation", resource.name)
        self._apply_factor(resource, event.factor)
        yield self.env.timeout(event.duration)
        self._lift_factor(resource, event.factor)
        self._close(record)

    def _mark_down(self, resource: Resource) -> bool:
        """Open one down window on ``resource`` (no cache flush here).

        Returns ``True`` on a genuine up-to-down transition (first open
        window), which is also the moment the link's health score takes
        its hit.  Callers decide how to batch the route-cache flush.
        """
        rid = id(resource)
        open_windows = self._down.get(rid, 0)
        self._down[rid] = open_windows + 1
        if open_windows:
            return False
        self._restored[rid] = self.env.event()
        health = self.link_health.get(rid)
        if health is None:
            health = self.link_health[rid] = LinkHealth(
                self.machine.resilience, now=self.env.now)
        health.record_down(self.env.now)
        return True

    def _mark_up(self, resource: Resource) -> bool:
        """Close one down window; ``True`` when fully restored."""
        rid = id(resource)
        open_windows = self._down[rid] - 1
        if open_windows:
            self._down[rid] = open_windows
            return False
        del self._down[rid]
        self._restored.pop(rid).succeed()
        self.link_health[rid].record_up(self.env.now)
        return True

    def _run_link_down(self, event: LinkDown):
        resource = self._resource(event.resource)
        record = self._open("link_down", resource.name)
        self._mark_down(resource)
        # Precomputed routes may cross the downed link; drop them so
        # the next lookup re-resolves against the live link state.
        self.machine.spec.topology.invalidate_routes([resource])
        for flow in self.machine.net.flows_crossing(resource):
            self.machine.net.abort_flow(flow, TransientTransferError(
                f"link {resource.name} went down under flow "
                f"{flow.label!r}"))
        yield self.env.timeout(event.duration)
        if self._mark_up(resource):
            # The link is back: cached avoid-set detours are stale too.
            self.machine.spec.topology.invalidate_routes([resource],
                                                         restored=True)
        self._close(record)

    def _run_link_flap(self, event: LinkFlap):
        resource = self._resource(event.resource)
        for cycle in range(event.cycles):
            record = self._open("link_flap", resource.name)
            self._mark_down(resource)
            self.machine.spec.topology.invalidate_routes([resource])
            for flow in self.machine.net.flows_crossing(resource):
                self.machine.net.abort_flow(flow, TransientTransferError(
                    f"link {resource.name} flapped down under flow "
                    f"{flow.label!r}"))
            yield self.env.timeout(event.down_s)
            if self._mark_up(resource):
                self.machine.spec.topology.invalidate_routes(
                    [resource], restored=True)
            self._close(record)
            if cycle + 1 < event.cycles:
                yield self.env.timeout(event.up_s)

    def _run_switch_down(self, event: SwitchDown):
        name, resources = self._switch_target(event.switch)
        record = self._open("switch_down", name)
        flushed = False
        for resource in resources:
            if self._mark_down(resource):
                flushed = True
        if flushed:
            # One batched flush for the whole switch going dark, not
            # one flush per attached link.
            self.machine.spec.topology.invalidate_routes(resources)
        for resource in resources:
            for flow in self.machine.net.flows_crossing(resource):
                self.machine.net.abort_flow(flow, TransientTransferError(
                    f"fabric switch {name} went down under flow "
                    f"{flow.label!r}"))
        yield self.env.timeout(event.duration)
        back = [resource for resource in resources
                if self._mark_up(resource)]
        if back:
            self.machine.spec.topology.invalidate_routes(back, restored=True)
        self._close(record)

    def _run_node_down(self, event: NodeDown) -> None:
        spec = self.machine.spec  # a ClusterSpec (validated at install)
        node = event.node
        if node in self._dead_nodes:
            return
        self._dead_nodes.add(node)
        # Permanent: the timeline window stays open, the trace gets an
        # instantaneous marker at the moment of death.
        self._open("node_down", f"node{node}")
        self.machine.trace.record("Fault:node_down", f"node{node}",
                                  self.env.now, end=self.env.now)
        # Every GPU of the node hard-fails: kernels racing fail_event
        # die, check_device rejects new work, planners see the ids via
        # failed_gpu_ids().
        topology = spec.topology
        dead_resources: List[Resource] = []
        for gpu in spec.gpu_ids_of_node(node):
            self._failed.add(gpu)
            fail_event = self._fail_events.get(gpu)
            if fail_event is not None and not fail_event.triggered:
                fail_event.succeed()
            memory = topology.node(self.machine.device(gpu).name).memory
            if memory is not None:
                dead_resources.append(memory)
        # NIC uplinks go down permanently (their restored events never
        # fire; check_host keeps new copies from parking on them).
        downed = []
        for link_name in spec.node_nic_links(node):
            resource = self._by_name[link_name]
            dead_resources.append(resource)
            if self._mark_down(resource):
                downed.append(resource)
        if downed:
            self.machine.spec.topology.invalidate_routes(downed)
        for memory_name in spec.node_host_memories(node):
            dead_resources.append(self._by_name[memory_name])
        for resource in dead_resources:
            for flow in self.machine.net.flows_crossing(resource):
                self.machine.net.abort_flow(flow, NodeFaultError(
                    f"node {node} died under flow {flow.label!r}"))

    def _run_engine_stall(self, event: CopyEngineStall):
        if event.direction not in ("in", "out", "both"):
            raise ValueError(
                f"engine stall direction must be 'in', 'out' or 'both', "
                f"got {event.direction!r}")
        device = self.machine.device(event.gpu)
        engines = []
        if event.direction in ("in", "both"):
            engines.append(device.engine_in)
        if event.direction in ("out", "both"):
            engines.append(device.engine_out)
        for engine in engines:
            yield engine.acquire()
        record = self._open("engine_stall", device.name)
        yield self.env.timeout(event.duration)
        for engine in reversed(engines):
            engine.release()
        self._close(record)

    def _run_straggler(self, event: StragglerGpu):
        device = self.machine.device(event.gpu)
        memory = self.machine.spec.topology.node(device.name).memory
        record = self._open("straggler", device.name)
        device.compute_slowdown *= event.slowdown
        if memory is not None:
            self._apply_factor(memory, 1.0 / event.slowdown)
        yield self.env.timeout(event.duration)
        device.compute_slowdown /= event.slowdown
        if abs(device.compute_slowdown - 1.0) < 1e-12:
            device.compute_slowdown = 1.0
        if memory is not None:
            self._lift_factor(memory, 1.0 / event.slowdown)
        self._close(record)

    def _run_gpu_fail(self, event: GpuFail) -> None:
        device = self.machine.device(event.gpu)
        self._failed.add(event.gpu)
        fail_event = self._fail_events.get(event.gpu)
        if fail_event is not None and not fail_event.triggered:
            fail_event.succeed()
        # Permanent: the timeline window stays open, the trace gets an
        # instantaneous marker at the moment of death.
        self._open("gpu_fail", device.name)
        self.machine.trace.record("Fault:gpu_fail", device.name,
                                  self.env.now, end=self.env.now)
        memory = self.machine.spec.topology.node(device.name).memory
        if memory is not None:
            for flow in self.machine.net.flows_crossing(memory):
                self.machine.net.abort_flow(flow, DeviceFaultError(
                    f"{device.name} failed under flow {flow.label!r}"))

    def _run_transient(self, event: TransientTransfer) -> None:
        for flow in self.machine.net.active_flows:
            if flow.label.startswith(_RESILIENT_PREFIXES):
                self.machine.net.abort_flow(flow, TransientTransferError(
                    f"injected transient failure of flow {flow.label!r}"))
                self._instant("transient", flow.label)
                return
        # Nothing resilient in flight: the shot fizzles (recorded so
        # the timeline still reproduces).
        self._instant("transient", "<no-target>")

    def _kill_flow_later(self, flow: Flow, fraction: float):
        if flow.rate > 0:
            delay = fraction * (flow.remaining / flow.rate)
        else:
            delay = 0.0
        if delay > 0:
            yield self.env.timeout(delay)
        if flow.active:
            self.machine.net.abort_flow(flow, TransientTransferError(
                f"transient failure of flow {flow.label!r}"))
            self._instant("transient", flow.label)
