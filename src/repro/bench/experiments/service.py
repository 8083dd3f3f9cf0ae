"""Service benchmark: the sort service under offered-load sweeps.

Not a paper figure — the paper sorts once on a dedicated machine; this
experiment measures the ROADMAP's service milestone instead.  Per
platform, a reference supervised sort calibrates the platform's
sorting rate; the workload generator then offers Poisson job streams
at 0.5x, 1x and 2x the estimated capacity, and the table reports
jobs/sec, p50/p99 latency of completed jobs, and the rejection-rate
curve.  The headline property under test: at 2x overload the service
*sheds load with typed rejections* while p99 of the jobs it does admit
stays within 2x of the 1x value — no unbounded queue, no crash.

A breaker scenario per platform round-trips a chaos plan through
:meth:`~repro.faults.plan.FaultPlan.to_json` /
:meth:`~repro.faults.plan.FaultPlan.from_json` (the replayable-artifact
path), makes one GPU a persistent straggler, and shows the circuit
breaker quarantining it after three consecutive faulted jobs — with
every subsequent job scheduled around it.

Results go to ``BENCH_service.json`` (quick mode too — the committed
record is generated quick, so the CI smoke diffs bit-identical
simulated metrics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.report import Table, write_bench_record
from repro.data import generate
from repro.faults import FaultPlan
from repro.faults.events import StragglerGpu
from repro.hw import system_by_name
from repro.recovery import SortSupervisor
from repro.runtime import Machine
from repro.serve import (
    ServiceConfig,
    SortService,
    Tenant,
    WorkloadSpec,
    generate_jobs,
)

SEED = 20220711

#: Physical keys of a full-size ("large") job; the mix scales down.
PHYSICAL_KEYS = 50_000

#: Logical billions of keys of a full-size job.
BILLIONS = 0.5

#: Offered load as a multiple of estimated capacity.
LOADS = (0.5, 1.0, 2.0)

SYSTEMS = ("ibm-ac922", "delta-d22x", "dgx-a100")

#: Jobs per load point (quick: CI smoke; full: tighter percentiles).
JOBS_QUICK = 30
JOBS_FULL = 120

#: Expected keys-fraction of one job under the default workload mix
#: (0.5 x 1/8 + 0.3 x 1/2 + 0.2 x 1).
MIX_MEAN_FRACTION = 0.4125


@dataclass
class LoadPoint:
    """Service metrics at one (platform, offered load) point."""

    system: str
    load: float
    offered: int
    completed: int
    rejected: int
    rejections: Dict[str, int]
    deadline: int
    failed: int
    jobs_per_s: float
    p50_latency_s: float
    p99_latency_s: float
    mean_queue_wait_s: float
    peak_queue: int
    #: Episode metrics snapshot (per-tenant latency histograms,
    #: rejection counters) from :attr:`ServiceReport.metrics`.  Nested,
    #: so ``repro.obs diff`` ignores it — the flat numbers above stay
    #: the comparison surface.
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0

    def to_json(self) -> Dict[str, object]:
        return {
            "system": self.system,
            "load": self.load,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "rejections": dict(self.rejections),
            "rejection_rate": self.rejection_rate,
            "deadline": self.deadline,
            "failed": self.failed,
            "jobs_per_s": self.jobs_per_s,
            "p50_latency_s": self.p50_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "mean_queue_wait_s": self.mean_queue_wait_s,
            "peak_queue": self.peak_queue,
            "metrics": dict(self.metrics),
        }


@dataclass
class BreakerScenario:
    """Circuit-breaker outcome of one chaos episode."""

    system: str
    straggler_gpu: int
    offered: int
    completed: int
    quarantined: Tuple[int, ...]
    #: Jobs judged before the breaker tripped (the consecutive-fault
    #: count it took).
    jobs_to_trip: int
    #: Jobs dispatched after the trip that still used the bad GPU
    #: (must be 0: scheduled around it).
    post_trip_uses: int
    plan_roundtrip_ok: bool

    def to_json(self) -> Dict[str, object]:
        return {
            "system": self.system,
            "straggler_gpu": self.straggler_gpu,
            "offered": self.offered,
            "completed": self.completed,
            "quarantined": list(self.quarantined),
            "jobs_to_trip": self.jobs_to_trip,
            "post_trip_uses": self.post_trip_uses,
            "plan_roundtrip_ok": self.plan_roundtrip_ok,
        }


def _calibrate(system: str) -> Tuple[float, float]:
    """``(scale, rate)``: logical/physical factor and the platform's
    measured sorting rate in logical keys per second per GPU.

    One supervised reference sort on a throwaway machine — the same
    executor the service uses, so the estimate includes checkpoint
    overhead.
    """
    spec = system_by_name(system)
    scale = BILLIONS * 1e9 / PHYSICAL_KEYS
    machine = Machine(spec, scale=scale)
    data = generate(PHYSICAL_KEYS, "uniform", seed=SEED)
    result = SortSupervisor(machine).sort(data, algorithm="p2p")
    rate = result.logical_keys / (result.duration * len(result.gpu_ids))
    return scale, rate


def run_load_point(system: str, load: float, jobs: int,
                   seed: int = SEED) -> LoadPoint:
    """One service episode at ``load`` times estimated capacity."""
    scale, rate = _calibrate(system)
    spec = system_by_name(system)
    machine = Machine(spec, scale=scale)
    # Capacity in jobs/s: all GPUs sorting at the calibrated rate over
    # the mix's mean job size.
    mean_logical = MIX_MEAN_FRACTION * PHYSICAL_KEYS * scale
    capacity = spec.num_gpus * rate / mean_logical
    workload = WorkloadSpec(
        jobs=jobs, arrival_rate=load * capacity,
        base_keys=PHYSICAL_KEYS,
        est_service_s=PHYSICAL_KEYS * scale / rate,
        seed=seed)
    service = SortService(
        machine,
        tenants=[Tenant(name) for name in workload.tenants],
        config=ServiceConfig(queue_capacity=6,
                             gpu_rate_keys_per_s=rate))
    report = service.run(generate_jobs(workload))
    return LoadPoint(
        system=system, load=load, offered=report.offered,
        completed=report.completed, rejected=report.rejected,
        rejections=dict(report.rejections),
        deadline=report.by_status.get("deadline", 0),
        failed=report.by_status.get("failed", 0),
        jobs_per_s=report.jobs_per_s,
        p50_latency_s=report.p50_latency_s,
        p99_latency_s=report.p99_latency_s,
        mean_queue_wait_s=report.mean_queue_wait_s,
        peak_queue=report.peak_queue,
        metrics=report.metrics)


def run_breaker_scenario(system: str, jobs: int,
                         seed: int = SEED) -> BreakerScenario:
    """Chaos episode: one persistent straggler GPU, breaker armed.

    The fault plan goes through a JSON round-trip before installation —
    exactly how a saved chaos artifact would be replayed.
    """
    scale, rate = _calibrate(system)
    spec = system_by_name(system)
    machine = Machine(spec, scale=scale)
    straggler = spec.num_gpus - 1
    plan = FaultPlan(events=(
        StragglerGpu(at=0.0, gpu=straggler, duration=1e9, slowdown=2.0),),
        seed=seed)
    loaded = FaultPlan.from_json(plan.to_json())
    machine.install_faults(loaded)
    workload = WorkloadSpec(
        jobs=jobs, arrival_rate=0.5 * spec.num_gpus * rate
        / (MIX_MEAN_FRACTION * PHYSICAL_KEYS * scale),
        base_keys=PHYSICAL_KEYS,
        est_service_s=PHYSICAL_KEYS * scale / rate,
        deadline_slack=None,  # no deadlines: isolate the breaker signal
        seed=seed + 1)
    service = SortService(
        machine,
        tenants=[Tenant(name) for name in workload.tenants],
        config=ServiceConfig(queue_capacity=6,
                             gpu_rate_keys_per_s=rate))
    report = service.run(generate_jobs(workload))
    trip_at = (service.breaker.trips[0][1]
               if service.breaker.trips else None)
    jobs_to_trip = 0
    post_trip_uses = 0
    for result in report.results:
        if result.started_s is None or straggler not in result.gpu_ids:
            continue
        if trip_at is not None and result.started_s > trip_at:
            post_trip_uses += 1
        else:
            jobs_to_trip += 1
    return BreakerScenario(
        system=system, straggler_gpu=straggler, offered=report.offered,
        completed=report.completed,
        quarantined=report.quarantined,
        jobs_to_trip=jobs_to_trip,
        post_trip_uses=post_trip_uses,
        plan_roundtrip_ok=loaded == plan)


def run_service(quick: bool = False,
                json_path: Optional[str] = "BENCH_service.json"
                ) -> List[Table]:
    """Run the service suite and build its tables."""
    jobs = JOBS_QUICK if quick else JOBS_FULL
    points: List[LoadPoint] = []
    breakers: List[BreakerScenario] = []
    for system in SYSTEMS:
        for load in LOADS:
            points.append(run_load_point(system, load, jobs))
        breakers.append(run_breaker_scenario(system, jobs))

    table = Table(
        ["system", "load", "offered", "done", "rejected", "reject %",
         "jobs/s", "p50 [s]", "p99 [s]", "wait [s]", "peak q"],
        title=f"Sort service under offered load ({BILLIONS:g}B-key "
              "full-size jobs)" + (" (quick)" if quick else ""))
    for point in points:
        table.add_row(
            point.system, f"{point.load:g}x", point.offered,
            point.completed, point.rejected,
            f"{100 * point.rejection_rate:.0f}%",
            f"{point.jobs_per_s:.1f}",
            f"{point.p50_latency_s:.3f}", f"{point.p99_latency_s:.3f}",
            f"{point.mean_queue_wait_s:.3f}", point.peak_queue)

    breaker_table = Table(
        ["system", "straggler", "offered", "done", "quarantined",
         "jobs to trip", "post-trip uses", "plan roundtrip"],
        title="Circuit breaker: persistent straggler, typed quarantine")
    for scenario in breakers:
        breaker_table.add_row(
            scenario.system, f"gpu{scenario.straggler_gpu}",
            scenario.offered, scenario.completed,
            ",".join(map(str, scenario.quarantined)) or "-",
            scenario.jobs_to_trip, scenario.post_trip_uses,
            "ok" if scenario.plan_roundtrip_ok else "BROKEN")

    if json_path:
        scenarios: Dict[str, object] = {
            f"{p.system}-x{p.load:g}": p.to_json() for p in points}
        scenarios.update({f"{s.system}-breaker": s.to_json()
                          for s in breakers})
        record = {
            "benchmark": "service",
            "seed": SEED,
            "quick": quick,
            "physical_keys": PHYSICAL_KEYS,
            "billions": BILLIONS,
            "loads": list(LOADS),
            "jobs_per_point": jobs,
            "scenarios": scenarios,
        }
        write_bench_record(json_path, record, seed=SEED)
    return [table, breaker_table]


#: Set by the command line's ``--quick`` flag before the registry runs.
QUICK = False

#: Set by ``--record PATH`` to redirect the JSON record (the CI smoke
#: writes a fresh record next to the committed one and diffs the two).
RECORD_PATH: Optional[str] = None


def run_service_entry() -> List[Table]:
    """Registry entry point; honours ``--quick`` and ``--record``."""
    return run_service(quick=QUICK,
                       json_path=RECORD_PATH or "BENCH_service.json")
