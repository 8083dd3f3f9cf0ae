"""Asynchronous copies between host and device buffers.

:func:`copy_async` is the single entry point for every transfer kind the
paper exercises — HtoD, DtoH, host-staged and direct P2P, and
device-local copies.  It spawns a flow over the routed path (charging
simulated time under bandwidth sharing) and moves the NumPy payload
once, on completion: the copy reads its source when it lands.  While it
is in flight the source stays registered on the machine, and every
functional write calls :func:`before_write` first, which snapshots the
sources it would overwrite (copy-on-conflict).  A landed copy therefore
always holds its source as of issue time.

All copy process functions are generators meant to run under
``machine.env.process`` (or ``yield from`` inside another process).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.errors import (
    CopyTimeoutError,
    RuntimeApiError,
    TopologyError,
    TransientTransferError,
)
from repro.hw import calibration as cal
from repro.runtime.buffer import DeviceBuffer, HostBuffer
from repro.sim.resources import Direction

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import Machine

Buffer = Union[HostBuffer, DeviceBuffer]


@dataclass(frozen=True)
class Span:
    """An element range of a buffer, the unit all copies operate on."""

    buffer: Buffer
    start: int
    stop: int

    @property
    def view(self) -> np.ndarray:
        """Writable NumPy view of the range."""
        return self.buffer.data[self.start:self.stop]

    @property
    def nbytes(self) -> int:
        """Physical size of the range in bytes."""
        return (self.stop - self.start) * self.buffer.data.dtype.itemsize

    def __len__(self) -> int:
        return self.stop - self.start


def span(buffer: Buffer, start: int = 0, stop: Optional[int] = None) -> Span:
    """Construct a :class:`Span` (``stop`` defaults to the buffer end)."""
    stop = len(buffer.data) if stop is None else stop
    if not 0 <= start <= stop <= len(buffer.data):
        raise RuntimeApiError(
            f"span [{start}:{stop}) out of range for buffer of "
            f"{len(buffer.data)} elements")
    return Span(buffer, start, stop)


class _Read:
    """The source of one copy in flight.

    ``payload`` stays ``None`` unless a conflicting write snapshots the
    source; the copy lands ``payload`` if set, else ``source`` itself.
    """

    __slots__ = ("source", "payload")

    def __init__(self, source: np.ndarray):
        self.source = source
        self.payload = None

    def on_write(self, machine: "Machine", target: np.ndarray) -> None:
        """A functional write to ``target`` is about to happen."""
        if self.payload is None and np.may_share_memory(self.source,
                                                        target):
            before_read(machine, self.source)
            self.payload = self.source.copy()


def before_write(machine: "Machine", *targets: Optional[np.ndarray]) -> None:
    """Settle the in-flight work a write to ``targets`` hits.

    Every functional write calls this first: a copy landing, the device
    sort and merge kernels, and the CPU sort and merge.  It snapshots
    the copy sources the write overlaps.  The 3n pipeline's in-place
    transfer swap is the case that needs it: the next inbound chunk
    overwrites a buffer the outbound copy still drains (Section 5.3,
    Figure 10).  It also joins the offloaded kernels
    (:mod:`repro.runtime.offload`) whose input or scratch the write
    overlaps, and marks them stale.  Entries are registered by the
    array that owns their memory (NumPy collapses every view's ``base``
    to it), so a target nothing reads costs one dict lookup.  ``None``
    targets (an absent payload array) are skipped.
    """
    in_flight = machine.in_flight
    for target in targets:
        if target is None:
            continue
        base = target.base
        entries = in_flight.get(id(target if base is None else base))
        if entries:
            for entry in entries:
                entry.on_write(machine, target)


def before_read(machine: "Machine", source: np.ndarray) -> None:
    """Join the offloaded kernels whose scratch ``source`` overlaps.

    A landing copy calls this before it reads its source, so it never
    reads a scratch buffer a worker thread is still writing.  The other
    copies in flight write nothing, so there is nothing to wait for.
    """
    base = source.base
    entries = machine.in_flight.get(id(source if base is None else base))
    if entries:
        for entry in entries:
            if entry.__class__ is not _Read:
                entry.on_read(source)


def _node_of(machine: "Machine", buffer: Buffer) -> str:
    if isinstance(buffer, HostBuffer):
        return machine.spec.numa_node_name(buffer.numa)
    if isinstance(buffer, DeviceBuffer):
        return buffer.device.name
    raise RuntimeApiError(f"not a buffer: {buffer!r}")


def _copy_kind(src: Buffer, dst: Buffer) -> str:
    src_gpu = isinstance(src, DeviceBuffer)
    dst_gpu = isinstance(dst, DeviceBuffer)
    if src_gpu and dst_gpu:
        return "DtoD" if src.device is dst.device else "PtoP"
    if src_gpu:
        return "DtoH"
    if dst_gpu:
        return "HtoD"
    return "HtoH"


def copy_async(machine: "Machine", dst: Span, src: Span,
               phase: Optional[str] = None):
    """Process: copy ``src`` into ``dst`` (sizes and dtypes must match).

    Timing model per copy kind:

    * **HtoD / DtoH / HtoH** — a flow over the routed path; pageable
      host buffers are additionally capped at
      :data:`~repro.hw.calibration.PAGEABLE_PENALTY` times the path
      bottleneck (Section 4.2); the GPU-side DMA engine of the matching
      direction is held for the duration.
    * **PtoP, direct** — a flow over the P2P link / NVSwitch ports,
      holding the source's outbound and the destination's inbound
      engine.
    * **PtoP, host-staged** — same, but rate-capped at the system's
      ``p2p_traverse_efficiency`` times the path's static bottleneck
      (Figures 5a/6a: 33 GB/s on the AC922, 9 GB/s on the DELTA).
    * **DtoD on one GPU** — kernel-driven local copy at the device's
      ``local_copy_rate``, crossing only the GPU's own memory; no DMA
      engine is held, so it overlaps with P2P traffic (Section 5.2).

    Under an installed :class:`~repro.faults.plan.FaultPlan` the routed
    kinds run the machine's :class:`~repro.faults.policy.ResiliencePolicy`:
    transient failures retry with exponential backoff, an optional
    watchdog bounds each attempt, and routes detour around down links
    (see :mod:`repro.faults`).  Without a plan none of that machinery is
    touched and simulated timing is bit-identical to the pre-fault
    engine.
    """
    if len(dst) != len(src):
        raise RuntimeApiError(
            f"copy size mismatch: dst has {len(dst)} elements, "
            f"src has {len(src)}")
    if dst.buffer.data.dtype != src.buffer.data.dtype:
        raise RuntimeApiError(
            f"copy dtype mismatch: {dst.buffer.data.dtype} vs "
            f"{src.buffer.data.dtype}")
    if len(src) == 0:
        return None

    env = machine.env
    kind = _copy_kind(src.buffer, dst.buffer)
    logical = src.nbytes * machine.scale
    start_time = env.now
    # Reserve the copy's span id up front so the flows it spawns can be
    # parented beneath it on the timeline while the copy is in flight.
    span_id = machine.trace.allocate_id() if phase is not None else None
    if machine.faults is not None:
        # New copies touching a hard-failed GPU (or the host memory of
        # a dead cluster node) raise immediately: the memory is gone,
        # so neither reading from nor writing to it can be retried into
        # success.
        for buffer in (src.buffer, dst.buffer):
            if isinstance(buffer, DeviceBuffer):
                machine.faults.check_device(buffer.device)
            elif isinstance(buffer, HostBuffer):
                machine.faults.check_host(buffer.numa)

    # The payload moves once, when the copy lands.  Until then the
    # source is registered so that a write over it (the 3n pipeline's
    # in-place transfer swap, Section 5.3) snapshots it first.
    source = src.view
    base = source.base
    owner = id(source if base is None else base)
    read = _Read(source)
    reads = machine.in_flight.get(owner)
    if reads is None:
        reads = machine.in_flight[owner] = set()
    reads.add(read)
    try:
        if kind == "DtoD":
            device = src.buffer.device
            yield env.timeout(device.spec.launch_overhead_s)
            memory = machine.spec.topology.node(device.name).memory
            route_hops = ((memory, Direction.FWD), (memory, Direction.REV))
            rate = device.spec.local_copy_rate
            if device.compute_slowdown != 1.0:
                # Straggler GPUs drive their kernel-driven local copies
                # at the same reduced speed as their kernels.
                rate /= device.compute_slowdown
            flow = machine.net.start_flow(
                route_hops, logical, rate_cap=rate,
                label=f"DtoD@{device.name}")
            if machine.obs is not None and span_id is not None:
                machine.obs.attach_flow(flow, span_id)
            yield flow.done
        else:
            yield from _routed_copy(machine, dst, src, kind, logical,
                                    span_id=span_id)
    finally:
        # The owner's entry is this set for as long as it holds a read.
        reads.discard(read)
        if not reads:
            del machine.in_flight[owner]

    target = dst.view
    before_write(machine, target)
    if read.payload is None:
        entries = machine.in_flight.get(owner)
        if entries:
            before_read(machine, source)
        target[:] = source
    else:
        target[:] = read.payload
    if phase is not None:
        actor = _node_of(machine, dst.buffer if kind != "DtoH"
                         else src.buffer)
        machine.trace.record(phase, actor, start_time, bytes=logical,
                             id=span_id)
    return dst


def _resolve_route(machine: "Machine", src_node: str, dst_node: str):
    """Process: the route for a copy, honoring down links.

    The healthy path is a straight cache hit.  When the direct route
    crosses a link the fault injector took down, try a route avoiding
    every down resource (a GPU-GPU detour through the host keeps its
    ``host_traversing`` flag, so the caller's ``p2p_traverse_efficiency``
    cap applies — graceful degradation, not teleportation).  With no
    detour (or re-routing disabled), park until the first blocking link
    is restored and resolve again.

    Quarantined links (health score under the policy's low watermark —
    flapping links, mostly) are avoided the same way, but only ever
    advisorily: a copy whose sole route crosses a quarantined-but-up
    link takes it rather than park, and a copy blocked by a genuinely
    down link still reroutes over quarantined links when nothing
    cleaner exists.
    """
    topology = machine.spec.topology
    faults = machine.faults
    env = machine.env
    while True:
        route = topology.route(src_node, dst_node)
        if faults is None or (not faults.down_ids
                              and not faults.link_health):
            return route
        down = faults.down_ids
        quarantined = faults.quarantined_ids()
        blocked = [id(resource) for resource, _direction in route.hops
                   if id(resource) in down]
        shunned = any(id(resource) in quarantined
                      for resource, _direction in route.hops)
        if not blocked and not shunned:
            return route
        if machine.resilience.reroute:
            try:
                detour = topology.route(src_node, dst_node,
                                        avoid=frozenset(down)
                                        | quarantined)
            except TopologyError:
                detour = None
            if detour is None and blocked and quarantined:
                # Quarantine is advisory: never let it turn a routable
                # copy into a parked one.
                try:
                    detour = topology.route(src_node, dst_node,
                                            avoid=frozenset(down))
                except TopologyError:
                    detour = None
            if detour is not None:
                machine.resilience_stats.reroutes += 1
                return detour
        if not blocked:
            # Only quarantined (but up) links in the way and no clean
            # detour: take the direct route rather than wait on links
            # that are not actually down.
            return route
        parked_at = env.now
        yield faults.restored_event(blocked[0])
        machine.resilience_stats.link_wait_s += env.now - parked_at


def _jitter_draw(machine: "Machine", policy) -> float:
    """One seeded jitter draw, or 0 when jitter is off (no stream use).

    Guarded so the default (``backoff_jitter == 0``) policy never
    consumes a random number — legacy faulted timelines replay
    bit-identically whether or not jitter support exists.
    """
    if policy.backoff_jitter and machine.faults is not None:
        return machine.faults.backoff_jitter_draw()
    return 0.0


def _routed_copy(machine: "Machine", dst: Span, src: Span, kind: str,
                 logical: float, span_id: Optional[int] = None):
    """Process: the engine-holding, route-crossing copy with resilience.

    Structure: acquire the DMA engines once (held across retries, like
    a real driver holding its copy queue), then attempt the transfer
    under the machine's :class:`~repro.faults.policy.ResiliencePolicy` —
    re-resolving the route per attempt, arming the optional watchdog,
    and backing off exponentially after transient failures.  Engines are
    released exactly as acquired, even when an interrupt lands between
    the two acquisitions.
    """
    env = machine.env
    src_node = _node_of(machine, src.buffer)
    dst_node = _node_of(machine, dst.buffer)
    policy = machine.resilience
    stats = machine.resilience_stats
    faults = machine.faults

    engines = []
    if isinstance(src.buffer, DeviceBuffer):
        engines.append(src.buffer.device.engine_out)
    if isinstance(dst.buffer, DeviceBuffer):
        engines.append(dst.buffer.device.engine_in)
    acquired = []
    try:
        for engine in engines:
            ticket = engine.acquire()
            try:
                yield ticket
            except BaseException:
                # Interrupted/failed between acquisitions: withdraw the
                # ticket (queued or granted) so no slot leaks, and leave
                # engines acquired so far to the finally clause.
                engine.cancel(ticket)
                raise
            acquired.append(engine)

        attempt = 0
        while True:
            if faults is not None:
                # A device (or whole node) can die between retry
                # attempts (backoff) — re-check before resubmitting so
                # the copy fails with the non-retryable fault error,
                # not another flow.
                for buffer in (src.buffer, dst.buffer):
                    if isinstance(buffer, DeviceBuffer):
                        faults.check_device(buffer.device)
                    elif isinstance(buffer, HostBuffer):
                        faults.check_host(buffer.numa)
            route = yield from _resolve_route(machine, src_node, dst_node)
            rate_cap = None
            if kind == "PtoP" and route.host_traversing:
                rate_cap = (machine.spec.p2p_traverse_efficiency
                            * route.bottleneck)
            for buffer in (src.buffer, dst.buffer):
                if isinstance(buffer, HostBuffer) and not buffer.pinned:
                    pageable = cal.PAGEABLE_PENALTY * route.bottleneck
                    rate_cap = (pageable if rate_cap is None
                                else min(rate_cap, pageable))
            # Fixed cost before the first byte moves: the launch
            # overhead of the involved devices plus one traversal
            # latency per hop of the route (pre-summed on the route).
            overhead = route.latency_s
            launch = 0.0
            for buffer in (src.buffer, dst.buffer):
                if isinstance(buffer, DeviceBuffer):
                    launch = max(launch,
                                 buffer.device.spec.launch_overhead_s)
            overhead += launch
            if overhead:
                yield env.timeout(overhead)
            flow = machine.net.start_flow(
                route.hops, logical, rate_cap=rate_cap,
                label=f"{kind}:{src_node}->{dst_node}")
            if machine.obs is not None and span_id is not None:
                machine.obs.attach_flow(flow, span_id)
            if faults is not None:
                faults.on_flow_started(flow)
            try:
                if policy.copy_timeout_s is None:
                    yield flow.done
                else:
                    deadline = env.timeout(policy.copy_timeout_s)
                    yield env.any_of([flow.done, deadline])
                    if not flow.done.triggered:
                        machine.net.abort_flow(flow)
                        stats.timeouts += 1
                        raise CopyTimeoutError(
                            f"copy {flow.label!r} exceeded the "
                            f"{policy.copy_timeout_s}s watchdog")
                return
            except TransientTransferError:
                if flow.active:
                    machine.net.abort_flow(flow)
                attempt += 1
                if attempt > policy.max_retries:
                    raise
                stats.retries += 1
                yield env.timeout(policy.backoff_s(
                    attempt, _jitter_draw(machine, policy)))
            except CopyTimeoutError:
                attempt += 1
                if not policy.retry_on_timeout or attempt > policy.max_retries:
                    raise
                stats.retries += 1
                yield env.timeout(policy.backoff_s(
                    attempt, _jitter_draw(machine, policy)))
            except BaseException:
                # Interrupt or any non-retryable failure: take the flow
                # out of the network before unwinding.
                if flow.active:
                    machine.net.abort_flow(flow)
                raise
    finally:
        for engine in reversed(acquired):
            engine.release()


def copy_all(machine: "Machine", pairs, phase: Optional[str] = None):
    """Process: run several copies concurrently; done when all finish.

    ``pairs`` is an iterable of ``(dst_span, src_span)``.
    """
    procs = [machine.env.process(copy_async(machine, dst, src, phase=phase))
             for dst, src in pairs]
    if procs:
        yield machine.env.all_of(procs)
    return None
