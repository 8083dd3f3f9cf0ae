"""Hierarchical sort: node-local P2P sort + cross-node fabric exchange.

The paper's algorithms stop at one machine; this module scales them out
to the multi-node clusters of :mod:`repro.hw.cluster`.  Three phases:

1. **LocalSort** — every node runs the P2P sort pipeline
   (:func:`repro.sort.p2p.p2p_pipeline`: HtoD, device sort, recursive
   merge with block swaps, DtoH) over its own GPUs and its shard of the
   input, exactly as :func:`repro.sort.p2p.p2p_sort` would on the
   standalone machine.  Nodes proceed concurrently.
2. **Exchange** — deterministic sampled splitters partition every
   node-local run into per-destination segments; the segments cross
   the fabric in ``N - 1`` all-to-all waves (round ``r``: node ``k``
   sends to node ``(k + r) % N``).  Without a fault plan each wave is
   one batched flow set (:meth:`FlowNetwork.start_flows`), so a
   64-node wave pays a single progressive fill instead of 63
   superseded intermediate ones.  With a fault plan installed each
   segment is its own resilient copy (retries, re-routes, watchdogs)
   and lands durably on its own, so a failing wave keeps what it
   delivered.
3. **NodeMerge** — each node multiway-merges its own segment with the
   received ones on the CPU (the HET sort's host-merge primitive), so
   the global output is the concatenation of per-node merges.

One epoch driver runs every sort, and every phase runs as a shielded
:class:`~repro.recovery.tasks.TaskGroup`.  A fault-free run is that
driver with nothing installed.  A node loss, an expired budget or a
task that raises stops the phase cleanly; the driver then replans,
returns a typed partial result or raises a typed error, and the
phase's tasks are drained either way.

Degenerate shapes are exact: a 1-node cluster skips phases 2 and 3
entirely and runs the plain P2P pipeline as its one phase — the
degenerate-shape tests pin its duration, spans and flow counters
bit-identical to :func:`~repro.sort.p2p.p2p_sort` on the standalone
platform.

As with distributed sort-merge systems, the input is assumed to start
*partitioned across the nodes* (shard ``k`` in node ``k``'s host
memory) and the output ends partitioned the same way; neither the
initial scatter nor the final gather into the convenience output array
is charged.
"""

from __future__ import annotations

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
from repro.runtime.memcpy import copy_async, span
from repro.sort.gpu_set import (plan_gpu_set, power_of_two_floor,
                                surviving_gpu_ids)
from repro.sort.p2p import (P2PConfig, P2PStats, check_fits, merge_stages,
                            p2p_pipeline, padded_staging)
from repro.sort.result import SortRecord, SortResult, stage_input
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
    #: Budget in simulated seconds for the whole sort; exceeding it
    #: returns a typed partial result (``deadline_exceeded=True``,
    #: ``output=None``).  ``None`` disables the budget.
    deadline_s: Optional[float] = None
    #: Directory for post-mortem bundles: a terminal SortError /
    #: RecoveryError dumps a provenance-stamped snapshot (failing
    #: phase, fabric tier, fault timeline) there before propagating.
    postmortem_dir: Optional[str] = None


@dataclass
class _NodePlan:
    """Everything one node needs for its local phase."""

    node: int
    gpu_ids: Tuple[int, ...]
    shard_start: int
    shard_stop: int
    chunk: int
    staging: HostBuffer
    host_out: HostBuffer


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
    src_cpu, dst_cpu)``.  Resolve every route, charge the wave's worst
    hop latency once, then launch the whole wave as a single batched
    allocation — semantically N simultaneous copies, one progressive
    fill.  An interrupt (an expired deadline) takes the wave's flows
    out of the network.
    """
    env = machine.env
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
    try:
        yield env.all_of([flow.done for flow in flows])
    except BaseException:
        for flow in flows:
            if flow.active:
                machine.net.abort_flow(flow)
        raise
    for (dst, src, start, stop, _src_cpu, dst_cpu), span_id, request in zip(
            copies, span_ids, requests):
        dst.data[:] = src.data[start:stop]
        machine.trace.record("Exchange", dst_cpu, started,
                             bytes=request[1], id=span_id)


def _plan_node(machine: Machine, spec: ClusterSpec, node: int,
               ids: Tuple[int, ...], start: int, stop: int,
               host_in: HostBuffer) -> _NodePlan:
    """Stage one node's input slice and size its per-GPU chunks."""
    chunk = -(-(stop - start) // len(ids))
    padded = chunk * len(ids)
    check_fits(machine, ids, chunk, host_in.dtype.itemsize)
    numa = spec.node_numa(node)
    staging, _ = padded_staging(machine, host_in.data[start:stop], padded,
                                numa, pinned=True)
    host_out = machine.host_buffer(np.empty(padded, dtype=host_in.dtype),
                                   numa=numa, pinned=True)
    return _NodePlan(node=node, gpu_ids=ids, shard_start=start, shard_stop=stop,
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
    included).  The sort is elastic: nodes already dead at planning
    time are excluded for free, each surviving node re-plans its local
    sort over the largest power-of-two prefix of its surviving GPUs,
    the cross-node exchange is wave-checkpointed through an
    :class:`~repro.recovery.cluster.ExchangeLedger` (a node lost
    mid-exchange replays only what its death invalidated), and
    node-level replans are bounded by ``config.max_node_replans``.
    ``config.deadline_s`` bounds the whole sort in simulated time.
    """
    config = config or HierConfig()
    spec = machine.spec
    if not isinstance(spec, ClusterSpec):
        raise SortError(
            f"hier_sort needs a ClusterSpec, got {type(spec).__name__}; "
            "build one with repro.hw.make_cluster")
    host_in, _ = stage_input(machine, data)
    n = len(host_in.data)
    if n < spec.num_nodes:
        raise SortError(
            f"{n} keys cannot be sharded over {spec.num_nodes} nodes")

    per_node = config.gpus_per_node
    if per_node is None:
        per_node = power_of_two_floor(spec.gpus_per_node)
    if per_node < 1 or per_node & (per_node - 1):
        raise SortError(
            f"gpus_per_node must be a power of two, got {per_node}")

    with machine.resilience_override(resilience):
        return _sort(machine, spec, config, host_in, per_node)


def _sort(machine: Machine, spec: ClusterSpec, config: HierConfig,
          host_in: HostBuffer, per_node: int) -> SortResult:
    """The epoch driver with wave checkpointing.

    The sort runs as a sequence of *epochs*.  Each epoch sorts whatever
    input slices are not durably sorted yet (everything on the first
    one; only the dead node's re-sharded repair slices afterwards),
    then drives the ledger's pending deliveries in waves and merges the
    unmerged ranges.  A node death raises out of the failing phase,
    the driver drops the node from the ledger — completed deliveries
    between survivors stay durable — and the next epoch replays only
    the invalidated work.  Transient (non-fatal) exchange failures
    replay just the failing wave.

    Every phase is a shielded task group, so any failure fails its
    phase once, after the phase's tasks are drained.  Only the
    Exchange depends on what the run can observe: its segments are
    per-delivery resilient copies under a fault plan, and otherwise
    each wave is one batched flow set.  A fault-free run therefore
    has the spans and flows of the plain pipeline.
    """
    env = machine.env
    faults = machine.faults
    n = len(host_in.data)
    num_nodes = spec.num_nodes
    dtype = host_in.dtype

    dead: Set[int] = set()
    excluded_nodes: List[int] = []
    excluded: List[int] = []
    node_stats: List[P2PStats] = []
    plan_ids: Dict[int, Tuple[int, ...]] = {}
    counters = {"node_replans": 0, "waves_replayed": 0, "wave_retries": 0,
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

    deadline = (env.timeout(config.deadline_s)
                if config.deadline_s is not None else None)

    def node_dead_now(k: int) -> bool:
        if faults is None:
            return False
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
        ids, dropped = plan_gpu_set(machine, spec.node_gpu_order(k, per_node),
                                    power_of_two=True)
        excluded.extend(gpu for gpu in dropped if gpu not in excluded)
        return _plan_node(machine, spec, k, ids, start, stop, host_in)

    def run_phase(name: str, tasks):
        """Process: run one phase's tasks in a task group.

        ``tasks`` is a list of ``(label, make)``; ``make(spawn, check)``
        returns a task's generator, given the group's ``spawn`` and
        ``check`` for its inner processes.
        """
        failing["phase"] = name
        failing["started"] = env.now
        group = TaskGroup(env, name=name)

        def body():
            for label, make in tasks:
                group.spawn(make(group.spawn, group.check), name=label)
            yield from ()

        yield from group.supervise(body(), deadline)

    def _local_task(plan: _NodePlan, job: Tuple[int, int, int],
                    stats: P2PStats):
        chunk = plan.chunk
        ranges = [(i * chunk, (i + 1) * chunk)
                  for i in range(len(plan.gpu_ids))]

        def make(spawn, check):
            yield from p2p_pipeline(
                machine, plan.gpu_ids,
                [span(plan.staging, lo, hi) for lo, hi in ranges],
                [span(plan.host_out, lo, hi) for lo, hi in ranges],
                config.local, stats, spawn=spawn, check=check)
            sorted_cache[job] = plan
        return make

    def _local_sorts(jobs: List[Tuple[int, int, int]]):
        """Process: sort every job not already durably sorted."""
        plans: List[Optional[_NodePlan]] = [None] * len(jobs)
        tasks = []
        for i, job in enumerate(jobs):
            cached = sorted_cache.get(job)
            if cached is not None:
                plans[i] = cached
                plan_ids.setdefault(job[0], cached.gpu_ids)
                continue
            k, start, stop = job
            # Planning can fail (a shard too large for its GPUs); the
            # error then belongs to the phase it plans.
            failing["phase"] = "LocalSort"
            failing["started"] = env.now
            plans[i] = plan_alive_node(k, start, stop)
            plan_ids[k] = plans[i].gpu_ids
            # One stats record per job keeps the pivots in job order.
            stats = P2PStats()
            node_stats.append(stats)
            tasks.append((f"local{job}", _local_task(plans[i], job, stats)))
        if tasks:
            yield from run_phase("LocalSort", tasks)
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

    def _inbox(ledger: ExchangeLedger, c, rng: int):
        """The receive buffer of ``c``'s segment for range ``rng``."""
        lo, hi = c.segment(rng, ledger.num_ranges)
        key = (c.cid, rng)
        buf = ledger.inbox.get(key)
        if buf is None or len(buf.data) != hi - lo:
            owner = ledger.range_owner[rng]
            buf = machine.host_buffer(hi - lo, dtype=dtype,
                                      numa=spec.node_numa(owner))
            ledger.inbox[key] = buf
        return buf, lo, hi

    def _landed(key: Tuple[int, int], ledger: ExchangeLedger) -> None:
        ledger.delivered.add(key)
        ever_delivered.add(key)

    def _deliver(ledger: ExchangeLedger, c, rng: int):
        buf, lo, hi = _inbox(ledger, c, rng)
        yield from copy_async(machine, span(buf), span(c.host, lo, hi),
                              phase="Exchange")
        # Durability is per-delivery, not per-wave: a wave that fails
        # halfway still keeps the segments that landed.
        _landed((c.cid, rng), ledger)

    def _wave(ledger: ExchangeLedger, batch):
        copies = []
        for c, rng in batch:
            buf, lo, hi = _inbox(ledger, c, rng)
            copies.append((buf, c.host, lo, hi, spec.node_cpu_name(c.node),
                           spec.node_cpu_name(ledger.range_owner[rng])))
        yield from _exchange_wave(machine, copies)
        for c, rng in batch:
            _landed((c.cid, rng), ledger)

    def _exchange(ledger: ExchangeLedger, alive: List[int]):
        """Process: drive pending deliveries in checkpointed waves.

        A successful wave delivers its whole batch, so the waves are
        planned once, in ``(cid, range)`` order within each wave.
        """
        idx = {k: i for i, k in enumerate(alive)}
        a = len(alive)
        by_wave: Dict[int, List] = {}
        for c, rng in ledger.pending():
            r = (idx[ledger.range_owner[rng]] - idx[c.node]) % a
            by_wave.setdefault(r, []).append((c, rng))
        for r in sorted(by_wave):
            batch = by_wave[r]
            if any((c.cid, rng) in ever_delivered for c, rng in batch):
                counters["waves_replayed"] += 1
            name = f"Exchange[wave {r}]"
            if faults is None:
                tasks = [("wave", lambda spawn, check, batch=batch:
                          _wave(ledger, batch))]
                yield from run_phase(name, tasks)
                continue
            tasks = [(f"deliver{c.cid}:{rng}",
                      lambda spawn, check, c=c, rng=rng:
                      _deliver(ledger, c, rng))
                     for c, rng in batch]
            yield from run_phase(name, tasks)
            # Only deliveries a fault can invalidate are recovery
            # points worth counting.
            counters["checkpoints"] += 1
            if machine.obs is not None:
                machine.obs.checkpointed(name, len(batch), env.now)

    def _merge_one(ledger: ExchangeLedger, rng: int,
                   parts: List[np.ndarray]):
        out = np.empty(sum(part.size for part in parts), dtype=dtype)
        yield from cpu_multiway_merge(
            machine, out, parts, numa=spec.node_numa(ledger.range_owner[rng]),
            phase="NodeMerge")
        ledger.merged[rng] = out

    def _merges(ledger: ExchangeLedger):
        tasks = []
        for rng in ledger.unmerged_ranges():
            # Every part is a non-empty segment.
            parts = ledger.merge_parts(rng)
            if not parts:
                ledger.merged[rng] = np.empty(0, dtype=dtype)
                continue
            tasks.append((f"merge{rng}",
                          lambda spawn, check, rng=rng, parts=parts:
                          _merge_one(ledger, rng, parts)))
        if tasks:
            yield from run_phase("NodeMerge", tasks)

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
            # Splitter selection reads every node's samples over the
            # fabric; charged as latency-bound remote reads, like the
            # P2P sort's pivot probes.
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
        yield from _merges(ledger)
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

    def _charge(counter: str, budget: int, what: str, phase: str,
                exc: BaseException) -> None:
        counters[counter] += 1
        if counters[counter] > budget:
            raise RecoveryError(
                f"giving up after {budget} {what} (last failure in "
                f"{phase}: {exc})") from exc

    def run():
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
                    _charge("node_replans", config.max_node_replans,
                            "node replans", phase, exc)
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
                    counters["waves_replayed"] += 1
                    _charge("wave_retries", config.max_wave_replays,
                            "wave replays", phase, exc)
                else:
                    _charge("node_replans", config.max_node_replans,
                            "node replans", phase, exc)

    with SortRecord(machine, "HierSort", host_in) as record:
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

    ledger = ledger_box[0]
    if deadline_hit[0]:
        output = None
    elif single_run[0] is not None:
        output = single_run[0].copy()
    else:
        output = np.concatenate([ledger.merged[rng]
                                 for rng in range(ledger.num_ranges)])

    pivots: List[int] = []
    p2p_bytes = 0.0
    for stats in node_stats:
        pivots.extend(stats.pivots)
        p2p_bytes += stats.p2p_bytes
    planned_nodes = sorted(plan_ids)
    all_ids = tuple(gpu for k in planned_nodes for gpu in plan_ids[k])
    g = len(plan_ids[planned_nodes[0]]) if planned_nodes else 0
    return record.result(
        "hier", all_ids,
        ("HtoD", "Sort", "Merge", "DtoH", "Exchange", "NodeMerge"),
        excluded=tuple(excluded),
        degraded=bool(excluded_nodes or counters["node_replans"]
                      or counters["waves_replayed"]),
        p2p_bytes=p2p_bytes,
        merge_stages=merge_stages(g),
        pivots=tuple(pivots),
        output=output,
        excluded_nodes=tuple(sorted(excluded_nodes)),
        replans=counters["node_replans"],
        waves_replayed=counters["waves_replayed"],
        checkpoints=counters["checkpoints"],
        checkpoints_restored=counters["restored"],
        deadline_exceeded=deadline_hit[0],
        completed_phases=tuple(completed),
    )
