"""The benchmark's workloads: inputs from a seed, one measured operation,
and the checks and simulated metrics of its outcome.

Each workload splits into

* ``setup(seed)`` — everything from after the imports to the first
  simulated event: building the platform or cluster, the ``Machine``,
  installing the fault plan, generating inputs, calibrating the service
  and generating its jobs;
* ``run(state)`` — the measured operation: one sort, or one service
  episode, driven through the program's public entry points;
* ``check(state, result)`` — outside the timed region: every output
  against ``np.sort`` of its input, plus the simulated metrics.

Every workload has a full size (what ``run.py`` measures) and a tiny
size with the same shape for the benchmark's own smoke tests.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro import Machine, dgx_a100, p2p_sort
from repro.data import generate
from repro.faults import FaultPlan
from repro.faults.events import NodeDown
from repro.hw import make_cluster
from repro.recovery import SortSupervisor
from repro.serve import (ServiceConfig, SortService, Tenant, WorkloadSpec,
                         generate_jobs)
from repro.sim.engine import SimProfile
from repro.sort import hier_sort

#: The paper's Fig. 14 total for an 8-GPU P2P sort of 2B int32 keys on
#: the DGX A100, in seconds (``PAPER_TOTALS_2B`` of the sort-scaling
#: experiment).
PAPER_P2P_DGX_8GPU_2B_S = 0.24


@dataclass
class Outcome:
    """What one measured operation produced, checked."""

    #: Operations the program was asked to do, and how many of them
    #: errored or returned a wrong output.
    attempted: int
    failed: int
    #: Every returned output equals ``np.sort`` of its input.
    correct: bool
    #: Simulated latency of every job completed within its deadline (a
    #: sort is one job), the simulated span they ran in, and the
    #: logical GB they sorted.
    latencies: Tuple[float, ...]
    span_s: float
    gb: float
    #: Exact model statistics (``model.*`` per-layer metrics).
    model: Dict[str, float]
    #: Per-layer counters read from the program's results.
    counters: Dict[str, float]
    #: Fingerprint of every output, for traced/untraced comparison.
    digest: str
    problems: List[str] = field(default_factory=list)


def _digest(parts) -> str:
    """SHA-256 over arrays and byte strings (``None`` hashes as ``-``)."""
    sha = hashlib.sha256()
    for part in parts:
        if part is None:
            part = b"-"
        elif not isinstance(part, bytes):
            part = np.ascontiguousarray(part)
        sha.update(part)
        sha.update(b"|")
    return sha.hexdigest()


def _recovery_counters(results) -> Dict[str, float]:
    """Counters every :class:`~repro.sort.result.SortResult` carries,
    summed over ``results``."""
    return {
        "runtime.memcpy.retries": sum(r.retries for r in results),
        "runtime.memcpy.reroutes": sum(r.reroutes for r in results),
        "recovery.checkpoints": sum(r.checkpoints for r in results),
        "recovery.replans": sum(r.replans for r in results),
        "recovery.waves_replayed": sum(r.waves_replayed for r in results),
    }


def _model(machine: Machine, sim_s: float) -> Dict[str, float]:
    model = {"model.sim_s": sim_s,
             "model.events_retired": machine.env.events_retired}
    if machine.env.profile is not None:
        model["model.fills"] = machine.env.profile.fills
    return model


def _machine_counters(machine: Machine) -> Dict[str, float]:
    """Engine and routing counters of the machine that ran the operation."""
    stats = machine.spec.topology.routes.stats()
    return {"sim.engine.events_retired": machine.env.events_retired,
            "sim.engine.events_dispatched": machine.env.events_processed,
            "hw.topology.route_hits": stats["hits"],
            "hw.topology.route_misses": stats["misses"]}


def sim_metrics(outcomes: Sequence[Outcome]) -> Tuple[Dict[str, float],
                                                      int]:
    """End-to-end simulated metrics of a run's outcomes, pooled, and the
    number of completions beyond the reported tail percentile."""
    latencies = np.array([x for o in outcomes for x in o.latencies])
    span = sum(o.span_s for o in outcomes)
    p50, p99 = np.percentile(latencies, [50, 99])
    return ({"sim_gbps": sum(o.gb for o in outcomes) / span,
             "goodput_jobs_per_s": len(latencies) / span,
             "sim_p50_s": float(p50), "sim_p99_s": float(p99)},
            int(np.sum(latencies > p99)))


class Workload:
    """One benchmark workload (see the module docstring)."""

    name: str = ""
    #: Why the workload is in the benchmark (BENCHMARK.json's ``why``).
    why: str = ""
    #: Completions a measured run needs beyond its tail percentile for
    #: the percentile to be reported.
    latency_tail = 0

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self, seed: int, profile: bool = False) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, result: Any) -> Outcome:
        raise NotImplementedError

    def inputs(self, state: Any) -> str:
        """Fingerprint of the generated inputs (seed-determinism tests)."""
        raise NotImplementedError


# -- single sorts ------------------------------------------------------------
@dataclass
class SortState:
    machine: Machine
    data: np.ndarray


class SortWorkload(Workload):
    """One sort of uniform int32 keys; each sort is one operation."""

    def build(self, seed: int) -> Machine:
        raise NotImplementedError

    def keys(self) -> int:
        raise NotImplementedError

    def sort(self, machine: Machine, data: np.ndarray):
        raise NotImplementedError

    def setup(self, seed: int, profile: bool = False) -> SortState:
        machine = self.build(seed)
        if profile:
            machine.env.profile = SimProfile()
        data = generate(self.keys(), "uniform", np.int32, seed=seed)
        return SortState(machine, data)

    def run(self, state: SortState):
        return self.sort(state.machine, state.data)

    def inputs(self, state: SortState) -> str:
        return _digest([state.data])

    def check(self, state: SortState, result) -> Outcome:
        ok = (result.output is not None
              and np.array_equal(result.output, np.sort(state.data)))
        sim_s = result.duration
        model = _model(state.machine, sim_s)
        model["model.paper_err"] = self.paper_err(sim_s)
        counters = {**_recovery_counters([result]),
                    **_machine_counters(state.machine)}
        return Outcome(
            attempted=1, failed=0 if ok else 1, correct=ok,
            # A sort is a one-job episode with no deadline.
            latencies=(sim_s,), span_s=sim_s,
            gb=result.logical_keys * state.data.dtype.itemsize / 1e9,
            model=model, counters=counters,
            digest=_digest([result.output]),
            problems=[] if ok else [f"{self.name}: output is not the "
                                    "sorted input"])

    def paper_err(self, sim_s: float) -> float:
        """|ln(sim / paper)| against the paper's matching figure; 0 for
        workloads the paper has no point for (an unvalidated model)."""
        return 0.0


class P2PDgx2B(SortWorkload):
    name = "p2p-dgx-2b"
    why = ("p2p_sort on 8 DGX A100 GPUs, 2B logical keys, real kernels: "
           "NumPy kernel layers do most of the work; the paper-anchored "
           "point (Fig. 14)")
    LOGICAL_KEYS = 2e9

    def keys(self) -> int:
        return 65_536 if self.tiny else 8_000_000

    def build(self, seed: int) -> Machine:
        return Machine(dgx_a100(), scale=self.LOGICAL_KEYS / self.keys())

    def sort(self, machine, data):
        return p2p_sort(machine, data)

    def paper_err(self, sim_s: float) -> float:
        return abs(math.log(sim_s / PAPER_P2P_DGX_8GPU_2B_S))


class HierFattree16(SortWorkload):
    name = "hier-fattree-16"
    why = ("hier_sort on 16 DGX A100 nodes over a fat-tree, fast kernels: "
           "the mirror image of p2p, with the max-min solver ~80% of wall "
           "and kernels ~1%")
    #: Logical keys per physical key at full size; the tiny size keeps
    #: the logical input per node, so the simulated timeline matches.
    SCALE = 64_000.0
    KEYS_PER_NODE = 16_384

    def nodes(self) -> int:
        return 4 if self.tiny else 16

    def keys_per_node(self) -> int:
        return 1024 if self.tiny else self.KEYS_PER_NODE

    def keys(self) -> int:
        return self.keys_per_node() * self.nodes()

    def build(self, seed: int) -> Machine:
        scale = self.SCALE * self.KEYS_PER_NODE / self.keys_per_node()
        return Machine(make_cluster("dgx-a100", self.nodes(),
                                    fabric="fat-tree"),
                       scale=scale, fast_functional=True)

    def sort(self, machine, data):
        return hier_sort(machine, data)


class HierNodeDown16(HierFattree16):
    name = "hier-nodedown-16"
    why = ("hier-fattree-16 with node 1 lost mid-Exchange: runs the elastic "
           "path (exchange ledger, injector, route flushes, node replan) "
           "the healthy run never touches")

    def node_down_at(self) -> float:
        """A fixed simulated instant inside the Exchange phase of the
        healthy run (Exchange spans ~0.12-0.36 s at full size)."""
        return 0.24 if self.tiny else 0.3097

    def build(self, seed: int) -> Machine:
        machine = super().build(seed)
        machine.install_faults(FaultPlan(
            events=(NodeDown(at=self.node_down_at(), node=1),), seed=seed))
        return machine


# -- the sort service --------------------------------------------------------
@dataclass
class ServiceState:
    machine: Machine
    service: SortService
    jobs: list


class ServiceDgx2x(Workload):
    """Open-loop Poisson job stream at twice the estimated capacity."""

    name = "service-dgx-2x"
    why = ("SortService on the DGX A100 at 2x capacity (3-tenant HET/P2P "
           "mix, queue 6): many small fills and engine dispatch, with "
           "admission shedding active")
    #: Physical keys of a full-size job and the logical billions it
    #: stands for; the default mix scales it down per job class.
    BILLIONS = 0.5
    #: Expected keys-fraction of one job under the default mix
    #: (0.5 x 1/8 + 0.3 x 1/2 + 0.2 x 1).
    MIX_MEAN_FRACTION = 0.4125
    LOAD = 2.0
    QUEUE_CAPACITY = 6

    def base_keys(self) -> int:
        return 2_000 if self.tiny else 50_000

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        # A run pools three episodes: ~2,700 completions, ~27 of them
        # beyond p99.
        self.latency_tail = 0 if tiny else 10

    def jobs(self) -> int:
        """Offered jobs per episode."""
        return 40 if self.tiny else 1_500

    def setup(self, seed: int, profile: bool = False) -> ServiceState:
        base = self.base_keys()
        scale = self.BILLIONS * 1e9 / base
        # Calibrate the platform's sorting rate with one supervised sort
        # (the executor the service runs every job under).
        reference = Machine(dgx_a100(), scale=scale, fast_functional=True)
        ref = SortSupervisor(reference).sort(
            generate(base, "uniform", seed=seed), algorithm="p2p")
        rate = ref.logical_keys / (ref.duration * len(ref.gpu_ids))
        spec = dgx_a100()
        machine = Machine(spec, scale=scale, fast_functional=True)
        if profile:
            machine.env.profile = SimProfile()
        capacity = spec.num_gpus * rate / (self.MIX_MEAN_FRACTION * base
                                           * scale)
        workload = WorkloadSpec(
            jobs=self.jobs(), arrival_rate=self.LOAD * capacity,
            base_keys=base, est_service_s=base * scale / rate, seed=seed)
        service = SortService(
            machine, tenants=[Tenant(name) for name in workload.tenants],
            config=ServiceConfig(queue_capacity=self.QUEUE_CAPACITY,
                                 gpu_rate_keys_per_s=rate))
        return ServiceState(machine, service, generate_jobs(workload))

    def run(self, state: ServiceState):
        return state.service.run(state.jobs)

    def _input(self, state: ServiceState, spec) -> np.ndarray:
        return generate(spec.keys, state.service.config.distribution,
                        np.dtype(spec.dtype), seed=spec.seed)

    def inputs(self, state: ServiceState) -> str:
        return _digest([np.array([(j.arrival_s, j.keys, j.gpus, j.seed)
                                  for j in state.jobs])])

    def check(self, state: ServiceState, report) -> Outcome:
        # Rejections and deadline misses are the service shedding load
        # as designed at 2x capacity; they count against goodput and in
        # the serve.* counters.  Failed jobs and wrong outputs are
        # failed operations.
        problems: List[str] = []
        failed = wrong = 0
        completed = []
        for job in report.results:
            if job.status in ("failed", "cancelled"):
                failed += 1
                problems.append(f"job {job.spec.label} {job.status}: "
                                f"{job.reason}")
            elif job.status == "completed":
                if (job.sort is None or not np.array_equal(
                        job.sort.output,
                        np.sort(self._input(state, job.spec)))):
                    wrong += 1
                    problems.append(f"job {job.spec.label}: output is not "
                                    "the sorted input")
                else:
                    completed.append(job)
        span = report.end_s - report.start_s
        itemsize = np.dtype("int32").itemsize
        gb = sum(job.sort.logical_keys for job in completed) * itemsize / 1e9
        model = _model(state.machine, span)
        model["model.paper_err"] = 0.0
        ran = [job.sort for job in report.results if job.sort is not None]
        counters = {
            **_recovery_counters(ran), **_machine_counters(state.machine),
            "serve.offered": report.offered,
            "serve.admitted": sum(job.admitted for job in report.results),
            "serve.rejected": report.by_status.get("rejected", 0),
            "serve.deadline_missed": report.by_status.get("deadline", 0),
            "serve.completed": len(completed),
            "serve.queue_wait_sim_s": report.mean_queue_wait_s,
        }
        statuses = [(job.spec.job_id, job.status) for job in report.results]
        digest = _digest([repr(statuses).encode()]
                         + [job.sort.output if job.sort else None
                            for job in report.results])
        return Outcome(attempted=report.offered, failed=failed + wrong,
                       correct=wrong == 0,
                       latencies=tuple(job.latency_s for job in completed),
                       span_s=span, gb=gb, model=model,
                       counters=counters, digest=digest, problems=problems)


WORKLOADS = {cls.name: cls for cls in (P2PDgx2B, HierFattree16,
                                       HierNodeDown16, ServiceDgx2x)}
