"""Hierarchical sort: node-local P2P sort + cross-node fabric exchange.

The paper's algorithms stop at one machine; this module scales them out
to the multi-node clusters of :mod:`repro.hw.cluster`.  Three phases:

1. **LocalSort** — every node runs the P2P sort pipeline (HtoD, device
   sort, recursive merge with block swaps, DtoH) over its own GPUs and
   its shard of the input, exactly as :func:`repro.sort.p2p.p2p_sort`
   would on the standalone machine.  Nodes proceed concurrently.
2. **Exchange** — deterministic sampled splitters partition every
   node-local run into per-destination segments; the segments cross
   the fabric in ``N - 1`` all-to-all waves (round ``r``: node ``k``
   sends to node ``(k + r) % N``).  A healthy cluster launches each
   wave as one batched flow set (:meth:`FlowNetwork.start_flows`), so
   a 64-node wave pays a single progressive fill instead of 63
   superseded intermediate ones; under an installed fault plan the
   copies fall back to the per-copy resilient path with retries,
   re-routes and watchdogs.
3. **NodeMerge** — each node multiway-merges its own segment with the
   received ones on the CPU (the HET sort's host-merge primitive), so
   the global output is the concatenation of per-node merges.

Degenerate shapes are exact: a 1-node cluster skips phases 2 and 3
entirely and adds *zero* simulated events over the plain P2P sort —
the degenerate-shape tests pin its duration bit-identical to
:func:`~repro.sort.p2p.p2p_sort` on the standalone platform.

As with distributed sort-merge systems, the input is assumed to start
*partitioned across the nodes* (shard ``k`` in node ``k``'s host
memory) and the output ends partitioned the same way; neither the
initial scatter nor the final gather into the convenience output array
is charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    DeviceFaultError,
    RecoveryError,
    SortError,
    TransferError,
)
from repro.faults.policy import ResiliencePolicy
from repro.hw.cluster import ClusterSpec
from repro.recovery.cluster import ExchangeLedger
from repro.recovery.tasks import TaskGroup
from repro.runtime.buffer import HostBuffer
from repro.runtime.context import Machine
from repro.runtime.cpu_ops import cpu_multiway_merge
from repro.runtime.kernels import sort_on_device
from repro.runtime.memcpy import copy_async, span
from repro.sort.gpu_set import surviving_gpu_ids
from repro.sort.p2p import P2PConfig, _Chunk, _merge_chunks, _pad, _Stats
from repro.sort.result import SortResult
from repro.units import US


@dataclass
class HierConfig:
    """Tunables of the hierarchical sort."""

    #: Node-local phase configuration (the P2P sort's knobs apply
    #: per-node: primitive, pivot policy, out-of-place swaps).
    local: P2PConfig = field(default_factory=P2PConfig)
    #: GPUs used per node; ``None`` takes the largest power of two the
    #: node has (the P2P merge needs ``2^k`` chunks).
    gpus_per_node: Optional[int] = None
    #: Sorted-run samples each node contributes to splitter selection.
    samples_per_node: int = 32
    #: Latency of one remote sample read over the fabric.
    splitter_probe_latency_s: float = 8 * US
    #: Node-level replans (a node lost mid-run, its shard re-sharded
    #: over the survivors) allowed before the sort fails with
    #: :class:`~repro.errors.RecoveryError`.  Nodes already dead when
    #: the sort plans are excluded for free and do not consume this.
    max_node_replans: int = 4
    #: Exchange-wave re-executions after transient (non-fatal) wave
    #: failures before giving up with RecoveryError.
    max_wave_replays: int = 4
    #: Wall-clock budget in simulated seconds for the faulted path;
    #: exceeding it returns a typed partial result
    #: (``deadline_exceeded=True``, ``output=None``).  ``None``
    #: disables the budget.
    deadline_s: Optional[float] = None
    #: Directory for post-mortem bundles: a terminal SortError /
    #: RecoveryError on the faulted path dumps a provenance-stamped
    #: snapshot (failing wave, fabric tier, fault timeline) there
    #: before propagating.
    postmortem_dir: Optional[str] = None


@dataclass
class _NodePlan:
    """Everything one node needs for its local phase."""

    node: int
    gpu_ids: Tuple[int, ...]
    numa: int
    shard_start: int
    shard_stop: int
    chunk: int
    staging: HostBuffer
    host_out: HostBuffer


def _node_local_run(machine: Machine, plan: _NodePlan, config: P2PConfig,
                    stats: _Stats, group: Optional[TaskGroup] = None):
    """Process: one node's P2P pipeline (mirrors ``p2p_sort``'s run).

    With ``group`` set (the elastic path) every concurrent batch runs
    under the group's shields: a node death aborts *all* of the node's
    flows in the same instant, and simultaneous bare process failures
    under one ``all_of`` crash the event loop — shielded, they collapse
    into the group's single recorded failure, raised once by
    ``check()`` after the barrier.
    """
    env = machine.env
    chunk = plan.chunk
    if chunk == 0:
        # An empty shard (ceil-sharding a few keys): nothing to sort.
        return
    dtype = plan.staging.dtype
    chunks: List[_Chunk] = []
    if group is None:
        spawn = env.process
        check = lambda: None  # noqa: E731
    else:
        spawn = (lambda gen:
                 group.spawn(gen, name=f"t{len(group.procs)}"))

        def check():
            if group.failure is not None:
                raise group.failure
    try:
        for gpu_id in plan.gpu_ids:
            device = machine.device(gpu_id)
            primary = device.alloc(chunk, dtype, label=f"chunk{gpu_id}")
            aux = device.alloc(chunk, dtype, label=f"aux{gpu_id}")
            chunks.append(_Chunk(device, primary, aux))

        htod = []
        for i, c in enumerate(chunks):
            htod.append(spawn(copy_async(
                machine, span(c.primary),
                span(plan.staging, i * chunk, (i + 1) * chunk),
                phase="HtoD")))
        yield env.all_of(htod)
        check()

        sorts = [spawn(sort_on_device(
            machine, span(c.primary), primitive=config.primitive,
            phase="Sort"))
            for c in chunks]
        yield env.all_of(sorts)
        check()

        yield from _merge_chunks(machine, chunks, config, stats,
                                 spawn=spawn, check=check)

        dtoh = [spawn(copy_async(
            machine, span(plan.host_out, i * chunk, (i + 1) * chunk),
            span(c.primary), phase="DtoH"))
            for i, c in enumerate(chunks)]
        yield env.all_of(dtoh)
        check()
    finally:
        # Also on interrupt / device failure: a replanned epoch must
        # not inherit leaked device allocations from the failed one.
        for c in chunks:
            for buffer in c.all_buffers():
                if not buffer.released:
                    buffer.free()


def _select_splitters(runs: Sequence[np.ndarray], num_nodes: int,
                      samples_per_node: int) -> np.ndarray:
    """Regular-sampling splitters: deterministic for a given input.

    Every node contributes ``samples_per_node`` evenly spaced elements
    of its sorted run; the ``N - 1`` global splitters are evenly spaced
    ranks of the merged sample set — the classic sample-sort bound on
    per-node imbalance.
    """
    samples = []
    for run in runs:
        m = run.size
        if m == 0:
            continue
        take = min(samples_per_node, m)
        idx = (np.arange(1, take + 1) * m) // (take + 1)
        samples.append(run[idx])
    merged = np.sort(np.concatenate(samples), kind="stable")
    ranks = (np.arange(1, num_nodes) * merged.size) // num_nodes
    return merged[ranks]


def _exchange_wave(machine: Machine, copies):
    """Process: one all-to-all wave of host-to-host fabric copies.

    ``copies`` is a list of ``(dst_buffer, src_buffer, start, stop,
    src_cpu, dst_cpu)``.  Healthy cluster: resolve every route, charge
    the wave's worst hop latency once, then launch the whole wave as a
    single batched allocation — semantically N simultaneous copies,
    one progressive fill.  Under faults, each copy runs the resilient
    per-copy path instead (retries, re-routes, watchdog).
    """
    env = machine.env
    if machine.faults is not None:
        procs = [env.process(copy_async(
            machine, span(dst), span(src, start, stop), phase="Exchange"))
            for dst, src, start, stop, _s, _d in copies]
        if procs:
            yield env.all_of(procs)
        return
    topology = machine.spec.topology
    started = env.now
    requests = []
    latency = 0.0
    span_ids = []
    for dst, src, start, stop, src_cpu, dst_cpu in copies:
        route = topology.route(src_cpu, dst_cpu)
        logical = (stop - start) * src.dtype.itemsize * machine.scale
        requests.append((route.hops, logical, None,
                         f"HtoH:{src_cpu}->{dst_cpu}"))
        latency = max(latency, route.latency_s)
        span_ids.append(machine.trace.allocate_id()
                        if machine.obs is not None else None)
    if latency:
        yield env.timeout(latency)
    flows = machine.net.start_flows(requests)
    if machine.obs is not None:
        for flow, span_id in zip(flows, span_ids):
            machine.obs.attach_flow(flow, span_id)
    yield env.all_of([flow.done for flow in flows])
    for (dst, src, start, stop, _src_cpu, dst_cpu), span_id, request in zip(
            copies, span_ids, requests):
        dst.data[:] = src.data[start:stop]
        machine.trace.record("Exchange", dst_cpu, started,
                             bytes=request[1], id=span_id)


def _plan_node(machine: Machine, spec: ClusterSpec, node: int,
               ids: Tuple[int, ...], start: int, stop: int,
               host_in: HostBuffer) -> _NodePlan:
    """Stage one node's input slice and size its per-GPU chunks."""
    dtype = host_in.dtype
    itemsize = dtype.itemsize
    g = len(ids)
    shard_n = stop - start
    chunk = -(-shard_n // g)
    padded = chunk * g
    for gpu_id in ids:
        need = 2 * chunk * itemsize * machine.scale
        device = machine.device(gpu_id)
        if need > device.capacity_logical:
            raise SortError(
                f"{device.name}: node shard chunk of {chunk} keys "
                f"needs {need / 1e9:.1f} GB, exceeding "
                f"{device.capacity_logical / 1e9:.1f} GB; shrink the "
                "input or grow the cluster")
    numa = spec.node_numa(node)
    padded_data = np.empty(padded, dtype=dtype)
    padded_data[:shard_n] = host_in.data[start:stop]
    _pad(padded_data, shard_n)
    staging = machine.host_buffer(padded_data, numa=numa, pinned=True)
    host_out = machine.host_buffer(np.empty(padded, dtype=dtype),
                                   numa=numa, pinned=True)
    return _NodePlan(node=node, gpu_ids=ids, numa=numa,
                     shard_start=start, shard_stop=stop,
                     chunk=chunk, staging=staging, host_out=host_out)


def hier_sort(machine: Machine, data: Union[np.ndarray, HostBuffer],
              config: Optional[HierConfig] = None,
              resilience: Optional[ResiliencePolicy] = None) -> SortResult:
    """Sort ``data`` across a multi-node cluster; returns the result.

    ``machine`` must wrap a :class:`~repro.hw.cluster.ClusterSpec`
    (:func:`~repro.hw.cluster.make_cluster`).  The input is sharded
    contiguously across the nodes, each node P2P-sorts its shard on
    its own GPUs, and the shards are exchanged and host-merged into
    globally sorted per-node partitions.  The sorted keys come back
    concatenated in ``result.output``.

    ``resilience`` overrides the machine's policy *for this call only*
    (the machine's own policy is restored on exit, error paths
    included).  Under an installed fault plan the sort runs the
    elastic path: nodes already dead at planning time are excluded for
    free, each surviving node re-plans its local sort over the largest
    power-of-two prefix of its surviving GPUs, the cross-node exchange
    is wave-checkpointed through an
    :class:`~repro.recovery.cluster.ExchangeLedger` (a node lost
    mid-exchange replays only what its death invalidated), and
    node-level replans are bounded by ``config.max_node_replans``.
    """
    config = config or HierConfig()
    spec = machine.spec
    if not isinstance(spec, ClusterSpec):
        raise SortError(
            f"hier_sort needs a ClusterSpec, got {type(spec).__name__}; "
            "build one with repro.hw.make_cluster")
    if isinstance(data, HostBuffer):
        host_in = data
    else:
        host_in = machine.host_buffer(np.asarray(data))
    n = len(host_in.data)
    if n < spec.num_nodes:
        raise SortError(
            f"{n} keys cannot be sharded over {spec.num_nodes} nodes")

    per_node = config.gpus_per_node
    if per_node is None:
        per_node = 1 << int(math.log2(spec.gpus_per_node))
    if per_node < 1 or per_node & (per_node - 1):
        raise SortError(
            f"gpus_per_node must be a power of two, got {per_node}")

    saved_policy = machine.resilience
    if resilience is not None:
        machine.resilience = resilience
    try:
        if machine.faults is not None:
            return _faulted_sort(machine, spec, config, host_in, per_node)
        return _healthy_sort(machine, spec, config, host_in, per_node)
    finally:
        machine.resilience = saved_policy


def _healthy_sort(machine: Machine, spec: ClusterSpec, config: HierConfig,
                  host_in: HostBuffer, per_node: int) -> SortResult:
    """The fault-free path: bit-identical to the pre-recovery engine."""
    n = len(host_in.data)
    num_nodes = spec.num_nodes
    dtype = host_in.dtype
    itemsize = dtype.itemsize

    # -- shard the input and plan every node's local phase -----------------
    shard = -(-n // num_nodes)
    plans: List[_NodePlan] = []
    excluded: List[int] = []
    for k in range(num_nodes):
        start, stop = min(k * shard, n), min((k + 1) * shard, n)
        ids = spec.node_gpu_order(k, per_node)
        plans.append(_plan_node(machine, spec, k, ids, start, stop,
                                host_in))

    node_stats = [_Stats() for _ in range(num_nodes)]
    stats_before = machine.resilience_stats.snapshot()
    start_time = machine.env.now
    root_id = None
    if machine.obs is not None:
        root_id = machine.trace.allocate_id()
        machine.trace.push_parent(root_id)

    merged_out: List[Optional[np.ndarray]] = [None] * num_nodes

    def run():
        env = machine.env
        if num_nodes == 1:
            # Degenerate cluster: the local sort *is* the global sort.
            # Run it inline — no wrapper process, no splitters, no
            # exchange, no host merge — so the event stream is exactly
            # the plain P2P pipeline's.
            plan = plans[0]
            yield from _node_local_run(machine, plan, config.local,
                                       node_stats[0])
            merged_out[0] = plan.host_out.data[
                :plan.shard_stop - plan.shard_start]
            return
        local = [env.process(_node_local_run(machine, plan, config.local,
                                             node_stats[plan.node]))
                 for plan in plans]
        yield env.all_of(local)

        # The sorted shard is the padded run's prefix (see _pad).
        runs = [plan.host_out.data[:plan.shard_stop - plan.shard_start]
                for plan in plans]
        # Splitter selection reads every node's samples over the
        # fabric; charged as latency-bound remote reads, like the P2P
        # sort's pivot probes.
        probes = num_nodes * config.samples_per_node
        yield env.timeout(probes * config.splitter_probe_latency_s)
        splitters = _select_splitters(runs, num_nodes,
                                      config.samples_per_node)
        bounds = [np.searchsorted(run, splitters, side="left")
                  for run in runs]

        def segment(src: int, dst: int) -> Tuple[int, int]:
            lo = 0 if dst == 0 else int(bounds[src][dst - 1])
            hi = (runs[src].size if dst == num_nodes - 1
                  else int(bounds[src][dst]))
            return lo, hi

        # Receive buffers: node i's incoming segment from every other
        # node, allocated in i's local host memory.
        inbox: Dict[Tuple[int, int], HostBuffer] = {}
        for dst in range(num_nodes):
            for src in range(num_nodes):
                if src == dst:
                    continue
                lo, hi = segment(src, dst)
                if hi > lo:
                    inbox[(src, dst)] = machine.host_buffer(
                        hi - lo, dtype=dtype, numa=plans[dst].numa)

        # All-to-all in N-1 waves; round r pairs node k with node
        # (k + r) % N, so every wave is a perfect matching of
        # disjoint source/destination nodes.
        for r in range(1, num_nodes):
            copies = []
            for src in range(num_nodes):
                dst = (src + r) % num_nodes
                key = (src, dst)
                if key not in inbox:
                    continue
                lo, hi = segment(src, dst)
                copies.append((inbox[key], plans[src].host_out, lo, hi,
                               spec.node_cpu_name(src),
                               spec.node_cpu_name(dst)))
            if copies:
                yield from _exchange_wave(machine, copies)

        merges = []
        for dst in range(num_nodes):
            parts = []
            for src in range(num_nodes):
                if src == dst:
                    lo, hi = segment(src, dst)
                    if hi > lo:
                        parts.append(runs[src][lo:hi])
                elif (src, dst) in inbox:
                    parts.append(inbox[(src, dst)].data)
            total = sum(part.size for part in parts)
            out = np.empty(total, dtype=dtype)
            merged_out[dst] = out
            if total:
                merges.append(env.process(cpu_multiway_merge(
                    machine, out, parts, numa=plans[dst].numa,
                    phase="NodeMerge")))
        if merges:
            yield env.all_of(merges)

    try:
        machine.run(run())
    finally:
        if root_id is not None:
            machine.trace.pop_parent()
            machine.trace.record("HierSort", "sort", start_time,
                                 bytes=n * itemsize * machine.scale,
                                 id=root_id)
    duration = machine.env.now - start_time
    output = np.concatenate([part for part in merged_out
                             if part is not None and part.size])

    recovery = machine.resilience_stats.delta(stats_before)
    fault_downtime = (machine.faults.downtime_between(
        start_time, machine.env.now)
        if machine.faults is not None else 0.0)
    degraded = bool(excluded or recovery.retries or recovery.reroutes
                    or recovery.timeouts or fault_downtime > 0.0)

    pivots: List[int] = []
    p2p_bytes = 0.0
    for stats in node_stats:
        pivots.extend(stats.pivots)
        p2p_bytes += stats.p2p_bytes
    all_ids = tuple(gpu_id for plan in plans for gpu_id in plan.gpu_ids)
    g = len(plans[0].gpu_ids)
    phases = {name: value for name, value in
              machine.trace.phase_durations().items()
              if name in ("HtoD", "Sort", "Merge", "DtoH",
                          "Exchange", "NodeMerge")}
    return SortResult(
        algorithm="hier",
        system=spec.name,
        gpu_ids=all_ids,
        physical_keys=n,
        logical_keys=n * machine.scale,
        dtype=str(dtype),
        duration=duration,
        phase_durations=phases,
        p2p_bytes=p2p_bytes,
        merge_stages=2 * int(math.log2(g)) - 1 if g > 1 else 0,
        pivots=tuple(pivots),
        output=output,
        degraded=degraded,
        retries=recovery.retries,
        reroutes=recovery.reroutes,
        timeouts=recovery.timeouts,
        fault_downtime=fault_downtime,
        excluded_gpus=tuple(excluded),
    )


def _faulted_sort(machine: Machine, spec: ClusterSpec, config: HierConfig,
                  host_in: HostBuffer, per_node: int) -> SortResult:
    """The elastic path: epoch state machine with wave checkpointing.

    The sort runs as a sequence of *epochs*.  Each epoch sorts whatever
    input slices are not durably sorted yet (everything on the first
    one; only the dead node's re-sharded repair slices afterwards),
    then drives the ledger's pending deliveries in waves and merges the
    unmerged ranges.  A node death raises out of the failing phase,
    the driver drops the node from the ledger — completed deliveries
    between survivors stay durable — and the next epoch replays only
    the invalidated work.  Transient (non-fatal) exchange failures
    replay just the failing wave.
    """
    env = machine.env
    faults = machine.faults
    n = len(host_in.data)
    num_nodes = spec.num_nodes
    dtype = host_in.dtype
    itemsize = dtype.itemsize

    dead: Set[int] = set()
    excluded_nodes: List[int] = []
    excluded: List[int] = []
    node_stats: List[_Stats] = []
    plan_ids: Dict[int, Tuple[int, ...]] = {}
    counters = {"node_replans": 0, "waves_replayed": 0,
                "checkpoints": 0, "restored": 0}
    completed: List[str] = []
    deadline_hit = [False]
    failing: Dict[str, object] = {"phase": None, "started": None}
    #: ``(cid, range)`` pairs that have ever landed — a wave touching
    #: one of them again is a replay, not first-time work.
    ever_delivered: Set[Tuple[int, int]] = set()
    single_run: List[Optional[np.ndarray]] = [None]
    ledger_box: List[Optional[ExchangeLedger]] = [None]
    repair_slices: List[Tuple[int, int]] = []
    #: ``(node, start, stop) -> plan`` of durably sorted slices; a
    #: replanned epoch reuses these instead of re-sorting.
    sorted_cache: Dict[Tuple[int, int, int], _NodePlan] = {}

    stats_before = machine.resilience_stats.snapshot()
    start_time = env.now
    deadline = (env.timeout(config.deadline_s)
                if config.deadline_s is not None else None)
    root_id = None
    if machine.obs is not None:
        root_id = machine.trace.allocate_id()
        machine.trace.push_parent(root_id)

    def node_dead_now(k: int) -> bool:
        if k in faults.failed_node_ids():
            return True
        survivors, _ = surviving_gpu_ids(
            machine, spec.node_gpu_order(k, per_node))
        return not survivors

    def _note_node_dead(k: int) -> None:
        dead.add(k)
        excluded_nodes.append(k)
        for gpu in spec.gpu_ids_of_node(k):
            if gpu not in excluded:
                excluded.append(gpu)
        for key in [key for key in sorted_cache if key[0] == k]:
            del sorted_cache[key]
        plan_ids.pop(k, None)

    def plan_alive_node(k: int, start: int, stop: int) -> _NodePlan:
        ids = spec.node_gpu_order(k, per_node)
        survivors, dropped = surviving_gpu_ids(machine, ids)
        for gpu in dropped:
            if gpu not in excluded:
                excluded.append(gpu)
        if not survivors:
            raise SortError(
                f"node {k} has no healthy GPUs left in {ids}")
        if dropped:
            keep = 1 << int(math.log2(len(survivors)))
            ids = tuple(survivors[:keep])
        return _plan_node(machine, spec, k, ids, start, stop, host_in)

    def run_phase(name: str, spawner):
        """Process: run one phase's tasks under a shielded TaskGroup."""
        failing["phase"] = name
        failing["started"] = env.now
        group = TaskGroup(env, name=name)

        def body():
            spawner(group)
            return None
            yield  # pragma: no cover - makes ``body`` a generator

        runner = env.process(group.run(body(), deadline=deadline))
        try:
            yield runner
        except GeneratorExit:
            # The driver was abandoned (a typed error crossed
            # ``machine.run`` and this frame is being gc-closed):
            # draining would mean yielding inside close(), which is
            # illegal — just unwind.
            raise
        except BaseException:
            # Backstop: force-drain anything the runner could not reap
            # before the driver reacts to the error.
            for _attempt in range(100):
                group.cancelled = True
                leftovers = group.alive()
                if runner.is_alive:
                    leftovers.append(runner)
                if not leftovers:
                    break
                for proc in leftovers:
                    group.interrupt_task(proc)
                try:
                    yield env.all_of(leftovers)
                except BaseException:  # noqa: BLE001 - keep draining
                    continue
            raise

    def _local_one(plan: _NodePlan, job: Tuple[int, int, int],
                   stats: _Stats, group: TaskGroup):
        yield from _node_local_run(machine, plan, config.local, stats,
                                   group=group)
        sorted_cache[job] = plan

    def _local_sorts(jobs: List[Tuple[int, int, int]]):
        """Process: sort every job not already durably sorted."""
        plans: List[Optional[_NodePlan]] = [None] * len(jobs)
        fresh: List[int] = []
        for i, job in enumerate(jobs):
            cached = sorted_cache.get(job)
            if cached is not None:
                plans[i] = cached
                plan_ids.setdefault(job[0], cached.gpu_ids)
            else:
                fresh.append(i)
        if fresh:
            stats = _Stats()
            node_stats.append(stats)
            for i in fresh:
                k, start, stop = jobs[i]
                plans[i] = plan_alive_node(k, start, stop)
                plan_ids[k] = plans[i].gpu_ids

            def spawner(group):
                for i in fresh:
                    group.spawn(_local_one(plans[i], jobs[i], stats,
                                           group),
                                name=f"local{jobs[i]}")

            yield from run_phase("LocalSort", spawner)
        return plans

    def _reshard(slices: List[Tuple[int, int]],
                 alive: List[int]) -> List[Tuple[int, int, int]]:
        """Chop repair slices into near-equal pieces over survivors."""
        pieces: List[Tuple[int, int, int]] = []
        for start, stop in slices:
            total = stop - start
            base, extra = divmod(total, len(alive))
            offset = start
            for i, k in enumerate(alive):
                size = base + (1 if i < extra else 0)
                if size:
                    pieces.append((k, offset, offset + size))
                offset += size
        return pieces

    def _register(ledger: ExchangeLedger,
                  plans: List[_NodePlan]) -> None:
        """Add fresh runs to the ledger; idempotent on retries."""
        live = {(c.node, c.src_start, c.src_stop)
                for c in ledger.contributions}
        for plan in plans:
            key = (plan.node, plan.shard_start, plan.shard_stop)
            if key not in live:
                ledger.add_contribution(
                    plan.node, plan.shard_start, plan.shard_stop,
                    plan.host_out, plan.shard_stop - plan.shard_start)

    def _deliver(ledger: ExchangeLedger, c, rng: int):
        lo, hi = c.segment(rng, ledger.num_ranges)
        owner = ledger.range_owner[rng]
        key = (c.cid, rng)
        buf = ledger.inbox.get(key)
        if buf is None or len(buf.data) != hi - lo:
            buf = machine.host_buffer(hi - lo, dtype=dtype,
                                      numa=spec.node_numa(owner))
            ledger.inbox[key] = buf
        yield from copy_async(machine, span(buf), span(c.host, lo, hi),
                              phase="Exchange")
        # Durability is per-delivery, not per-wave: a wave that fails
        # halfway still keeps the segments that landed.
        ledger.delivered.add(key)
        ever_delivered.add(key)

    def _exchange(ledger: ExchangeLedger, alive: List[int]):
        """Process: drive pending deliveries in checkpointed waves."""
        idx = {k: i for i, k in enumerate(alive)}
        a = len(alive)
        while True:
            pairs = ledger.pending()
            if not pairs:
                return
            by_wave: Dict[int, List] = {}
            for c, rng in pairs:
                r = (idx[ledger.range_owner[rng]] - idx[c.node]) % a
                by_wave.setdefault(r, []).append((c, rng))
            r = min(by_wave)
            batch = sorted(by_wave[r], key=lambda p: (p[0].cid, p[1]))
            if any((c.cid, rng) in ever_delivered for c, rng in batch):
                counters["waves_replayed"] += 1

            def spawner(group, batch=batch):
                for c, rng in batch:
                    group.spawn(_deliver(ledger, c, rng),
                                name=f"deliver{c.cid}:{rng}")

            yield from run_phase(f"Exchange[wave {r}]", spawner)
            counters["checkpoints"] += 1
            if machine.obs is not None:
                machine.obs.checkpointed(f"Exchange[wave {r}]",
                                         len(batch), env.now)

    def _merge_one(ledger: ExchangeLedger, rng: int, owner: int,
                   out: np.ndarray, parts: List[np.ndarray]):
        if out.size:
            yield from cpu_multiway_merge(machine, out, parts,
                                          numa=spec.node_numa(owner),
                                          phase="NodeMerge")
        ledger.merged[rng] = out

    def _merges(ledger: ExchangeLedger, alive: List[int]):
        todo = ledger.unmerged_ranges()
        if not todo:
            return
        work = []
        for rng in todo:
            owner = ledger.range_owner[rng]
            parts = ledger.merge_parts(rng)
            total = sum(part.size for part in parts)
            work.append((rng, owner, np.empty(total, dtype=dtype), parts))

        def spawner(group):
            for rng, owner, out, parts in work:
                group.spawn(_merge_one(ledger, rng, owner, out, parts),
                            name=f"merge{rng}")

        yield from run_phase("NodeMerge", spawner)

    def _epoch(alive: List[int]):
        """Process: one attempt at finishing the sort on ``alive``."""
        ledger = ledger_box[0]
        if ledger is None:
            shard = -(-n // len(alive))
            jobs = [(alive[i], min(i * shard, n),
                     min((i + 1) * shard, n)) for i in range(len(alive))]
            plans = yield from _local_sorts(jobs)
            if "LocalSort" not in completed:
                completed.append("LocalSort")
            if len(alive) == 1:
                plan = plans[0]
                single_run[0] = plan.host_out.data[
                    :plan.shard_stop - plan.shard_start]
                return
            runs = [plan.host_out.data[:plan.shard_stop - plan.shard_start]
                    for plan in plans]
            probes = len(alive) * config.samples_per_node
            yield env.timeout(probes * config.splitter_probe_latency_s)
            if deadline is not None and deadline.processed:
                raise DeadlineExceededError(
                    "deadline expired during the SplitterSelect phase "
                    f"at t={env.now:.6f}s")
            splitters = _select_splitters(runs, len(alive),
                                          config.samples_per_node)
            ledger = ExchangeLedger(splitters=splitters,
                                    nodes=tuple(alive))
            ledger_box[0] = ledger
            _register(ledger, plans)
        elif repair_slices:
            pieces = _reshard(list(repair_slices), alive)
            plans = yield from _local_sorts(pieces)
            _register(ledger, plans)
            # Only now: a failure above re-enters the repair branch.
            del repair_slices[:]
        yield from _exchange(ledger, alive)
        if "Exchange" not in completed:
            completed.append("Exchange")
        yield from _merges(ledger, alive)
        if "NodeMerge" not in completed:
            completed.append("NodeMerge")

    def _absorb_deaths(newly: List[int], alive: List[int],
                       exc: Optional[BaseException]) -> List[int]:
        survivors = [k for k in alive if k not in newly]
        if not survivors:
            raise SortError(
                f"node {newly[0]} died and no cluster nodes survive "
                "it") from exc
        ledger = ledger_box[0]
        for k in newly:
            _note_node_dead(k)
            if ledger is not None:
                repair_slices.extend(ledger.drop_node(k, survivors))
        if ledger is not None:
            # Deliveries that stayed durable across the drop are the
            # checkpointed work the replay will *not* redo.
            counters["restored"] += len(ledger.delivered)
        return survivors

    def run():
        wave_retries = 0
        while True:
            alive = [k for k in range(num_nodes) if k not in dead]
            # Nodes already dead (at planning time, or lost quietly
            # between epochs) are excluded without charging the replan
            # budget — no in-flight work of ours died with them.
            newly = [k for k in alive if node_dead_now(k)]
            if newly:
                alive = _absorb_deaths(newly, alive, None)
            try:
                yield from _epoch(alive)
                return
            except DeadlineExceededError:
                deadline_hit[0] = True
                return
            except (DeviceFaultError, TransferError) as exc:
                phase = failing["phase"] or "LocalSort"
                newly = [k for k in alive if node_dead_now(k)]
                if newly:
                    counters["node_replans"] += 1
                    if counters["node_replans"] > config.max_node_replans:
                        raise RecoveryError(
                            f"giving up after {config.max_node_replans} "
                            f"node replans (last failure in {phase}: "
                            f"{exc})") from exc
                    survivors = _absorb_deaths(newly, alive, exc)
                    now = env.now
                    machine.trace.record("Replan", "hier", now)
                    if machine.obs is not None:
                        machine.obs.replanned(
                            phase, type(exc).__name__,
                            tuple(gpu for k in newly
                                  for gpu in spec.gpu_ids_of_node(k)),
                            tuple(gpu for k in survivors
                                  for gpu in spec.gpu_ids_of_node(k)),
                            now)
                elif phase.startswith("Exchange"):
                    wave_retries += 1
                    counters["waves_replayed"] += 1
                    if wave_retries > config.max_wave_replays:
                        raise RecoveryError(
                            f"giving up after {config.max_wave_replays} "
                            f"wave replays (last failure in {phase}: "
                            f"{exc})") from exc
                else:
                    counters["node_replans"] += 1
                    if counters["node_replans"] > config.max_node_replans:
                        raise RecoveryError(
                            f"giving up after {config.max_node_replans} "
                            f"node replans (last failure in {phase}: "
                            f"{exc})") from exc

    try:
        machine.run(run())
    except SortError as exc:
        exc.failing_phase = failing["phase"]
        exc.failing_phase_started = failing["started"]
        exc.postmortems = []
        if config.postmortem_dir is not None:
            from repro.obs.postmortem import build_bundle, write_bundle
            try:
                bundle = build_bundle(machine, exc,
                                      phase=failing["phase"],
                                      phase_started=failing["started"],
                                      label="hier")
                exc.postmortems.append(
                    write_bundle(bundle, config.postmortem_dir))
            except Exception:  # noqa: BLE001 - must not mask exc
                pass
        raise
    finally:
        if root_id is not None:
            machine.trace.pop_parent()
            machine.trace.record("HierSort", "sort", start_time,
                                 bytes=n * itemsize * machine.scale,
                                 id=root_id)

    duration = env.now - start_time
    ledger = ledger_box[0]
    if deadline_hit[0]:
        output = None
    elif single_run[0] is not None:
        output = single_run[0].copy()
    else:
        output = np.concatenate([ledger.merged[rng]
                                 for rng in range(ledger.num_ranges)])

    recovery = machine.resilience_stats.delta(stats_before)
    fault_downtime = faults.downtime_between(start_time, env.now)
    degraded = bool(excluded or excluded_nodes or counters["node_replans"]
                    or counters["waves_replayed"] or recovery.retries
                    or recovery.reroutes or recovery.timeouts
                    or fault_downtime > 0.0)

    pivots: List[int] = []
    p2p_bytes = 0.0
    for stats in node_stats:
        pivots.extend(stats.pivots)
        p2p_bytes += stats.p2p_bytes
    planned_nodes = sorted(plan_ids)
    all_ids = tuple(gpu for k in planned_nodes for gpu in plan_ids[k])
    g = len(plan_ids[planned_nodes[0]]) if planned_nodes else 0
    phases = {name: value for name, value in
              machine.trace.phase_durations().items()
              if name in ("HtoD", "Sort", "Merge", "DtoH",
                          "Exchange", "NodeMerge")}
    return SortResult(
        algorithm="hier",
        system=spec.name,
        gpu_ids=all_ids,
        physical_keys=n,
        logical_keys=n * machine.scale,
        dtype=str(dtype),
        duration=duration,
        phase_durations=phases,
        p2p_bytes=p2p_bytes,
        merge_stages=2 * int(math.log2(g)) - 1 if g > 1 else 0,
        pivots=tuple(pivots),
        output=output,
        degraded=degraded,
        retries=recovery.retries,
        reroutes=recovery.reroutes,
        timeouts=recovery.timeouts,
        fault_downtime=fault_downtime,
        excluded_gpus=tuple(excluded),
        excluded_nodes=tuple(sorted(excluded_nodes)),
        replans=counters["node_replans"],
        waves_replayed=counters["waves_replayed"],
        checkpoints=counters["checkpoints"],
        checkpoints_restored=counters["restored"],
        deadline_exceeded=deadline_hit[0],
        completed_phases=tuple(completed),
    )
