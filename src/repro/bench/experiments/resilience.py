"""Resilience benchmark: sorting under injected faults.

This experiment does not reproduce a paper figure — it measures what the
fault-injection subsystem (:mod:`repro.faults`) costs.  Every scenario
sorts the same data twice on the DGX A100: once on a clean machine and
once with a seeded :class:`~repro.faults.plan.FaultPlan` generated at a
given intensity over the clean run's duration (so the fault windows
actually overlap the sort).  The table reports the clean-vs-faulted
overhead together with the recovery work performed — retried copies,
re-routed transfers, time parked on down links, and fault downtime.

Results are written to ``BENCH_resilience.json`` (in quick mode too:
the record is this experiment's primary artifact; quick just sweeps a
single intensity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.report import Table, write_bench_record
from repro.data import generate
from repro.faults import FaultPlan
from repro.hw import dgx_a100
from repro.runtime import Machine

#: Seed of every generated fault plan (one plan per scenario, offset by
#: the scenario index so the scenarios see distinct fault timelines).
SEED = 20220610

#: Physical keys per run; the scale factor supplies the billions.
PHYSICAL_KEYS = 100_000

#: Logical billions of keys per run.
BILLIONS = 2.0


@dataclass
class ScenarioResult:
    """Clean-vs-faulted outcome of one resilience scenario."""

    name: str
    algorithm: str
    intensity: float
    planned_faults: int
    clean_s: float
    faulted_s: float
    degraded: bool
    retries: int
    reroutes: int
    timeouts: int
    fault_downtime_s: float
    link_wait_s: float
    excluded_gpus: Tuple[int, ...]
    sorted_ok: bool

    @property
    def overhead_pct(self) -> float:
        """Faulted slowdown over the clean run, in percent."""
        if self.clean_s <= 0:
            return 0.0
        return 100.0 * (self.faulted_s - self.clean_s) / self.clean_s

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable record."""
        return {
            "algorithm": self.algorithm,
            "intensity": self.intensity,
            "planned_faults": self.planned_faults,
            "clean_s": self.clean_s,
            "faulted_s": self.faulted_s,
            "overhead_pct": self.overhead_pct,
            "degraded": self.degraded,
            "retries": self.retries,
            "reroutes": self.reroutes,
            "timeouts": self.timeouts,
            "fault_downtime_s": self.fault_downtime_s,
            "link_wait_s": self.link_wait_s,
            "excluded_gpus": list(self.excluded_gpus),
            "sorted_ok": self.sorted_ok,
        }


@dataclass
class RecoveryScenarioResult:
    """Outcome of one supervised-recovery scenario.

    Baseline is a *supervised* clean run, so the overhead column shows
    the combined cost of checkpointing plus the actual recovery, not
    checkpointing alone.
    """

    name: str
    algorithm: str
    kind: str              # "replan" | "speculate" | "deadline"
    clean_s: float
    faulted_s: float
    degraded: bool
    replans: int
    checkpoints: int
    checkpoints_restored: int
    speculations: int
    speculative_wins: int
    deadline_exceeded: bool
    completed_phases: int
    excluded_gpus: Tuple[int, ...]
    sorted_ok: bool

    @property
    def overhead_pct(self) -> float:
        if self.clean_s <= 0:
            return 0.0
        return 100.0 * (self.faulted_s - self.clean_s) / self.clean_s

    def to_json(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "kind": self.kind,
            "supervised": True,
            "clean_s": self.clean_s,
            "faulted_s": self.faulted_s,
            "overhead_pct": self.overhead_pct,
            "degraded": self.degraded,
            "replans": self.replans,
            "checkpoints": self.checkpoints,
            "checkpoints_restored": self.checkpoints_restored,
            "speculations": self.speculations,
            "speculative_wins": self.speculative_wins,
            "deadline_exceeded": self.deadline_exceeded,
            "completed_phases": self.completed_phases,
            "excluded_gpus": list(self.excluded_gpus),
            "sorted_ok": self.sorted_ok,
        }


@dataclass
class ClusterScenarioResult:
    """Outcome of one cluster-tier fault scenario.

    Baseline is a clean hierarchical sort on the same cluster; the
    faulted run loses nodes, a fabric switch, or a flapping NIC link
    mid-run and recovers elastically.  ``recovery_cost_s`` is the
    absolute slowdown (the price of the replanned epochs), and the
    degraded throughput is ``clean_s / faulted_s`` of the clean one.
    """

    name: str
    nodes: int
    fabric: str
    kind: str              # "node-down" | "switch-down" | "link-flap"
    failed_nodes: int
    failed_switches: int
    clean_s: float
    faulted_s: float
    degraded: bool
    replans: int
    waves_replayed: int
    checkpoints: int
    checkpoints_restored: int
    retries: int
    reroutes: int
    fault_downtime_s: float
    excluded_nodes: Tuple[int, ...]
    sorted_ok: bool

    @property
    def overhead_pct(self) -> float:
        if self.clean_s <= 0:
            return 0.0
        return 100.0 * (self.faulted_s - self.clean_s) / self.clean_s

    @property
    def recovery_cost_s(self) -> float:
        return self.faulted_s - self.clean_s

    def to_json(self) -> Dict[str, object]:
        return {
            "algorithm": "hier",
            "nodes": self.nodes,
            "fabric": self.fabric,
            "kind": self.kind,
            "failed_nodes": self.failed_nodes,
            "failed_switches": self.failed_switches,
            "clean_s": self.clean_s,
            "faulted_s": self.faulted_s,
            "overhead_pct": self.overhead_pct,
            "recovery_cost_s": self.recovery_cost_s,
            "degraded": self.degraded,
            "replans": self.replans,
            "waves_replayed": self.waves_replayed,
            "checkpoints": self.checkpoints,
            "checkpoints_restored": self.checkpoints_restored,
            "retries": self.retries,
            "reroutes": self.reroutes,
            "fault_downtime_s": self.fault_downtime_s,
            "excluded_nodes": list(self.excluded_nodes),
            "sorted_ok": self.sorted_ok,
        }


def _sort(algorithm: str, machine: Machine, data: np.ndarray):
    from repro.sort import het_sort, p2p_sort  # deferred: the sort stack

    if algorithm == "p2p":
        return p2p_sort(machine, data)
    return het_sort(machine, data)


def run_scenario(algorithm: str, intensity: float,
                 seed: int = SEED) -> ScenarioResult:
    """One clean + one faulted run of ``algorithm`` at ``intensity``."""
    scale = BILLIONS * 1e9 / PHYSICAL_KEYS
    data = generate(PHYSICAL_KEYS, "uniform", np.int32, seed=42)

    clean_machine = Machine(dgx_a100(), scale=scale)
    clean = _sort(algorithm, clean_machine, data)

    faulted_machine = Machine(dgx_a100(), scale=scale)
    plan = FaultPlan.generate(faulted_machine.spec, seed=seed,
                              intensity=intensity, horizon=clean.duration)
    faulted_machine.install_faults(plan)
    faulted = _sort(algorithm, faulted_machine, data)

    stats = faulted_machine.resilience_stats
    return ScenarioResult(
        name=f"{algorithm}-x{intensity:g}",
        algorithm=algorithm,
        intensity=intensity,
        planned_faults=len(plan),
        clean_s=clean.duration,
        faulted_s=faulted.duration,
        degraded=faulted.degraded,
        retries=faulted.retries,
        reroutes=faulted.reroutes,
        timeouts=faulted.timeouts,
        fault_downtime_s=faulted.fault_downtime,
        link_wait_s=stats.link_wait_s,
        excluded_gpus=faulted.excluded_gpus,
        sorted_ok=bool(np.all(np.diff(faulted.output) >= 0)),
    )


def run_recovery_scenario(algorithm: str, kind: str,
                          seed: int = SEED) -> RecoveryScenarioResult:
    """One supervised-clean + one supervised-faulted run.

    ``kind`` picks the recovery path exercised: ``replan`` hard-fails a
    GPU mid-run, ``speculate`` makes one GPU a 30x straggler shortly
    after the sort starts — late enough that the start-of-sort
    exclusion check cannot pre-empt it, early enough that the window
    still covers the local-sort kernel launches, so the supervisor has
    to race a backup — and ``deadline`` gives the sort half its clean
    duration and expects a typed partial result.
    """
    from repro.faults.events import GpuFail, StragglerGpu
    from repro.recovery import SortSupervisor, SupervisorConfig

    scale = BILLIONS * 1e9 / PHYSICAL_KEYS
    data = generate(PHYSICAL_KEYS, "uniform", np.int32, seed=42)

    clean_machine = Machine(dgx_a100(), scale=scale)
    clean = SortSupervisor(clean_machine).sort(data, algorithm=algorithm)

    config = SupervisorConfig()
    events = ()
    if kind == "replan":
        events = (GpuFail(at=0.4 * clean.duration, gpu=3),)
    elif kind == "speculate":
        events = (StragglerGpu(at=0.15 * clean.duration, gpu=3,
                               duration=100.0, slowdown=30.0),)
    elif kind == "deadline":
        config = SupervisorConfig(deadline_s=0.5 * clean.duration)
    else:
        raise ValueError(f"unknown recovery scenario kind {kind!r}")

    machine = Machine(dgx_a100(), scale=scale)
    if events:
        machine.install_faults(FaultPlan(events=events, seed=seed))
    result = SortSupervisor(machine, config).sort(data,
                                                  algorithm=algorithm)

    sorted_ok = (result.output is not None
                 and bool(np.all(np.diff(result.output) >= 0)))
    return RecoveryScenarioResult(
        name=f"sup-{algorithm}-{kind}",
        algorithm=algorithm,
        kind=kind,
        clean_s=clean.duration,
        faulted_s=result.duration,
        degraded=result.degraded,
        replans=result.replans,
        checkpoints=result.checkpoints,
        checkpoints_restored=result.checkpoints_restored,
        speculations=result.speculations,
        speculative_wins=result.speculative_wins,
        deadline_exceeded=result.deadline_exceeded,
        completed_phases=len(result.completed_phases),
        excluded_gpus=result.excluded_gpus,
        sorted_ok=sorted_ok,
    )


def run_cluster_scenario(nodes: int, kind: str, failed_nodes: int = 1,
                         fabric: str = "fat-tree",
                         seed: int = SEED) -> ClusterScenarioResult:
    """One clean + one faulted hierarchical sort on a cluster.

    ``kind`` picks the cluster-tier fault: ``node-down`` kills
    ``failed_nodes`` nodes — the first mid-exchange, so the
    wave-checkpointed ledger has durable deliveries to preserve, any
    further ones earlier in the run; ``switch-down`` takes a fabric
    spine out for a fifth of the clean duration (the redundant-path
    fabrics reroute around it); ``link-flap`` cycles one NIC link
    down/up three times, exercising the health-score hysteresis.
    """
    from repro.faults.events import LinkFlap, NodeDown, SwitchDown
    from repro.hw.cluster import make_cluster
    from repro.sort.hier import hier_sort

    scale = BILLIONS * 1e9 / PHYSICAL_KEYS
    data = generate(PHYSICAL_KEYS, "uniform", np.int32, seed=42)

    clean_machine = Machine(make_cluster("dgx-a100", nodes, fabric=fabric),
                            scale=scale)
    clean = hier_sort(clean_machine, data)
    exchange_tail = (clean.phase_durations.get("Exchange", 0.0)
                     + clean.phase_durations.get("NodeMerge", 0.0))
    mid_exchange = clean.duration - 0.5 * exchange_tail

    events = []
    failed_switches = 0
    if kind == "node-down":
        events.append(NodeDown(at=mid_exchange, node=1))
        for extra in range(1, failed_nodes):
            events.append(NodeDown(at=(0.3 + 0.1 * extra) * clean.duration,
                                   node=1 + extra))
    elif kind == "switch-down":
        failed_switches = 1
        switches = clean_machine.spec.topology.fabric_switches
        spines = [s for s in switches if "spine" in s]
        # A spine when the fabric has one (redundant paths: the
        # exchange reroutes); otherwise the only leaf (a hard outage
        # the copies wait out).
        events.append(SwitchDown(at=0.4 * clean.duration,
                                 switch=spines[0] if spines
                                 else switches[0],
                                 duration=0.2 * clean.duration))
    elif kind == "link-flap":
        machine_spec = clean_machine.spec
        resource = machine_spec.node_nic_links(1)[0]
        events.append(LinkFlap(at=0.3 * clean.duration, resource=resource,
                               cycles=3,
                               down_s=0.03 * clean.duration,
                               up_s=0.05 * clean.duration))
    else:
        raise ValueError(f"unknown cluster scenario kind {kind!r}")

    machine = Machine(make_cluster("dgx-a100", nodes, fabric=fabric),
                      scale=scale)
    machine.install_faults(FaultPlan(events=tuple(events), seed=seed))
    result = hier_sort(machine, data)

    sorted_ok = (result.output is not None
                 and bool(np.all(np.diff(result.output) >= 0)))
    name = f"cluster{nodes}-{kind}"
    if kind == "node-down" and failed_nodes != 1:
        name += f"-{failed_nodes}"
    return ClusterScenarioResult(
        name=name,
        nodes=nodes,
        fabric=fabric,
        kind=kind,
        failed_nodes=failed_nodes if kind == "node-down" else 0,
        failed_switches=failed_switches,
        clean_s=clean.duration,
        faulted_s=result.duration,
        degraded=result.degraded,
        replans=result.replans,
        waves_replayed=result.waves_replayed,
        checkpoints=result.checkpoints,
        checkpoints_restored=result.checkpoints_restored,
        retries=result.retries,
        reroutes=result.reroutes,
        fault_downtime_s=result.fault_downtime,
        excluded_nodes=result.excluded_nodes,
        sorted_ok=sorted_ok,
    )


def run_resilience(quick: bool = False,
                   json_path: Optional[str] = "BENCH_resilience.json"
                   ) -> List[Table]:
    """Run the resilience suite and build its tables.

    Three parts: plain sorts surviving fault plans of increasing
    intensity, supervised sorts recovering from targeted failures
    (replan, speculation, deadline), and hierarchical sorts on
    clusters losing nodes, fabric switches and NIC links mid-run.
    ``quick`` sweeps one intensity per algorithm, runs only the replan
    recovery scenarios, and only two 4-node cluster scenarios.  Both
    modes write ``json_path`` — the JSON record is the experiment's
    artifact, not a by-product; the recovery and cluster scenarios add
    ``sup-*`` and ``cluster*`` keys to its ``scenarios`` mapping.
    """
    intensities = [1.0] if quick else [0.5, 1.0, 2.0]
    results: List[ScenarioResult] = []
    for algorithm in ("p2p", "het"):
        for index, intensity in enumerate(intensities):
            results.append(run_scenario(algorithm, intensity,
                                        seed=SEED + index))

    if quick:
        recovery_specs = [("p2p", "replan"), ("het", "replan")]
    else:
        recovery_specs = [("p2p", "replan"), ("het", "replan"),
                          ("p2p", "speculate"), ("p2p", "deadline")]
    recovery: List[RecoveryScenarioResult] = []
    for algorithm, kind in recovery_specs:
        recovery.append(run_recovery_scenario(algorithm, kind, seed=SEED))

    if quick:
        cluster_specs = [(4, "node-down", 1), (4, "switch-down", 1)]
    else:
        cluster_specs = [(4, "node-down", 1), (4, "node-down", 2),
                         (4, "switch-down", 1), (4, "link-flap", 1),
                         (16, "node-down", 1), (16, "switch-down", 1)]
    cluster: List[ClusterScenarioResult] = []
    for nodes, kind, failed_nodes in cluster_specs:
        cluster.append(run_cluster_scenario(nodes, kind,
                                            failed_nodes=failed_nodes,
                                            seed=SEED))

    table = Table(
        ["scenario", "faults", "clean [s]", "faulted [s]", "overhead",
         "retries", "reroutes", "downtime [s]", "degraded", "sorted"],
        title="Sorting under injected faults (DGX A100, "
              f"{BILLIONS:g}B keys)" + (" (quick)" if quick else ""))
    for result in results:
        table.add_row(
            result.name, result.planned_faults,
            f"{result.clean_s:.3f}", f"{result.faulted_s:.3f}",
            f"{result.overhead_pct:+.1f}%",
            result.retries, result.reroutes,
            f"{result.fault_downtime_s:.3f}",
            "yes" if result.degraded else "no",
            "yes" if result.sorted_ok else "NO")

    recovery_table = Table(
        ["scenario", "clean [s]", "faulted [s]", "overhead", "replans",
         "ckpts", "restored", "spec", "spec wins", "phases", "outcome"],
        title="Supervised recovery (clean baseline is a supervised run)")
    for rec in recovery:
        if rec.deadline_exceeded:
            outcome = "deadline (typed partial)"
        elif rec.sorted_ok:
            outcome = "sorted"
        else:
            outcome = "NOT SORTED"
        recovery_table.add_row(
            rec.name, f"{rec.clean_s:.3f}", f"{rec.faulted_s:.3f}",
            f"{rec.overhead_pct:+.1f}%", rec.replans,
            rec.checkpoints, rec.checkpoints_restored,
            rec.speculations, rec.speculative_wins,
            rec.completed_phases, outcome)

    cluster_table = Table(
        ["scenario", "clean [s]", "faulted [s]", "overhead", "replans",
         "waves replayed", "restored", "retries", "reroutes",
         "excluded nodes", "sorted"],
        title="Cluster-tier faults (hierarchical sort, clean baseline "
              "on the same cluster)")
    for cl in cluster:
        cluster_table.add_row(
            cl.name, f"{cl.clean_s:.3f}", f"{cl.faulted_s:.3f}",
            f"{cl.overhead_pct:+.1f}%", cl.replans, cl.waves_replayed,
            cl.checkpoints_restored, cl.retries, cl.reroutes,
            ",".join(str(k) for k in cl.excluded_nodes) or "-",
            "yes" if cl.sorted_ok else "NO")

    if json_path:
        scenarios: Dict[str, object] = {r.name: r.to_json()
                                        for r in results}
        scenarios.update({r.name: r.to_json() for r in recovery})
        scenarios.update({r.name: r.to_json() for r in cluster})
        record = {
            "benchmark": "resilience",
            "seed": SEED,
            "quick": quick,
            "physical_keys": PHYSICAL_KEYS,
            "billions": BILLIONS,
            "scenarios": scenarios,
        }
        write_bench_record(json_path, record, seed=SEED)
    return [table, recovery_table, cluster_table]


#: Set by the command line's ``--quick`` flag before the registry runs.
QUICK = False


def run_resilience_entry() -> List[Table]:
    """Registry entry point; honours the command line's ``--quick``."""
    return run_resilience(quick=QUICK)
