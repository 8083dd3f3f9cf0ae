"""Capture golden traces for the determinism regression test.

Run from the repo root::

    PYTHONPATH=src python tests/sim/capture_golden.py > tests/sim/golden_determinism.json

The JSON records, for each reference sort run, the end-to-end duration,
the phase breakdown and every trace span (phase, actor, start, end,
bytes) with full float precision.  The single-machine entries were
captured from the pre-optimization allocator (the O(F^2) full-rescan
``FlowNetwork``), so matching them proves the incremental engine leaves
simulated time bit-identical.  The hierarchical entries pin the cluster
sort: a fault-free 4-node run, a fault-free 16-node run whose exchange
waves are each one batched flow set (per-copy flows give other times
there), and a 4-node run that loses node 1 mid-Exchange.  The
supervised and service entries pin the :class:`SortSupervisor` paths: a
fault-free supervised P2P sort, one that loses GPU 5 mid-Exchange (after
the LocalSort checkpoint) and restores from the ``sorted`` checkpoint,
a supervised out-of-core HET sort, and a 40-job service episode whose
record adds every job's status and latency.  They were captured at
commit a1d7c60, before the supervised P2P path was folded into the
P2P pipeline's step functions.  The remaining HET entries pin every
chunk pipeline the HET sort has: the out-of-core run under the 3n
approach, with eager merging, with GPU-merged groups (whose last group
is ragged, so it skips the GPU merge), and with a 4-byte payload per
key, plus a supervised out-of-core HET sort that loses GPU 5
mid-Pipeline and re-lanes the unflushed chunks over the survivors.
They were captured at commit 95dcf83, before the HET pipelines were
folded into one set of chunk steps; the two supervised HET entries
were re-captured when the supervised HET sort began running the plain
sort's 2n lanes instead of one buffer per GPU.  The plain HET entries
held bit-identical when the plain HET sort became the supervised sort
with nothing installed.  The last P2P entries pin what only
the plain P2P driver carried: a 4-byte payload per key, NUMA-local
input placement with a charged redistribution, and the serialized
(not out-of-place) swap.  They were captured at commit 2552714, before
the plain P2P sort became the supervised sort with nothing installed.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from repro.data import generate
from repro.faults import FaultPlan
from repro.faults.events import GpuFail, NodeDown
from repro.hw import dgx_a100, make_cluster
from repro.recovery import SortSupervisor
from repro.runtime import Machine
from repro.serve import (ServiceConfig, SortService, Tenant, WorkloadSpec,
                         generate_jobs)
from repro.sort import HetConfig, P2PConfig, het_sort, hier_sort, p2p_sort

CASES = {
    # (algorithm, physical keys, logical billions[, fat-tree nodes,
    #  failure time of hier's node 1 or the supervised sort's GPU 5[,
    #  HetConfig or P2PConfig fields[, carry an int32 payload per key]]])
    "het-dgx-2b": ("het", 200_000, 2.0),
    "p2p-dgx-2b": ("p2p", 200_000, 2.0),
    "het-dgx-512b-ooc": ("het", 100_000, 512.0),
    "hier-fattree-4": ("hier", 60_000, 2.0, 4),
    "hier-fattree-16": ("hier", 32_000, 2.048, 16),
    "hier-nodedown-4": ("hier", 60_000, 2.0, 4, 0.117),
    "supervised-p2p-dgx-2b": ("supervised-p2p", 200_000, 2.0),
    "supervised-p2p-gpufail": ("supervised-p2p", 200_000, 2.0, 0, 0.2),
    "supervised-het-dgx-512b-ooc": ("supervised-het", 100_000, 512.0),
    "supervised-het-gpufail": ("supervised-het", 100_000, 512.0, 0, 20.0),
    "het-dgx-512b-ooc-3n": ("het", 100_000, 512.0, 0, None,
                            {"approach": "3n"}),
    "het-dgx-512b-ooc-eager": ("het", 100_000, 512.0, 0, None,
                               {"eager_merge": True}),
    "het-dgx-512b-ooc-gpumerge": ("het", 100_000, 512.0, 0, None,
                                  {"gpu_merge_groups": True}),
    "het-dgx-512b-ooc-kv": ("het", 100_000, 512.0, 0, None, None, True),
    "p2p-dgx-2b-kv": ("p2p", 200_000, 2.0, 0, None, None, True),
    "p2p-dgx-2b-numa-local": ("p2p", 200_000, 2.0, 0, None,
                              {"input_placement": "numa-local",
                               "charge_redistribution": True}),
    "p2p-dgx-2b-serialized-swap": ("p2p", 200_000, 2.0, 0, None,
                                   {"out_of_place_swap": False}),
    # Base job keys; the episode offers 40 jobs at about twice the
    # DGX A100's capacity, so admission shedding is active.
    "service-dgx-40": ("service", 2_000, 0.5),
}


def _spans(machine: Machine) -> list:
    return sorted([s.phase, s.actor, s.start, s.end, s.bytes]
                  for s in machine.trace.spans)


def _service_episode(machine: Machine, base: int) -> dict:
    workload = WorkloadSpec(jobs=40, arrival_rate=50.0, base_keys=base,
                            est_service_s=0.73, seed=1)
    service = SortService(
        machine, tenants=[Tenant(name) for name in workload.tenants],
        config=ServiceConfig(queue_capacity=6, gpu_rate_keys_per_s=6.8e8))
    report = service.run(generate_jobs(workload))
    return {
        "duration": report.end_s - report.start_s,
        "phases": machine.trace.phase_durations(),
        "spans": _spans(machine),
        "jobs": [[job.spec.job_id, job.status, job.latency_s]
                 for job in report.results],
    }


def run_case(algorithm: str, physical: int, billions: float,
             nodes: int = 0, down_at: float = None, config: dict = None,
             values: bool = False):
    scale = billions * 1e9 / physical
    data = generate(physical, "uniform", np.int32, seed=42)
    if algorithm == "hier":
        machine = Machine(make_cluster("dgx-a100", nodes, fabric="fat-tree"),
                          scale=scale)
        if down_at is not None:
            machine.install_faults(FaultPlan(
                events=(NodeDown(at=down_at, node=1),)))
        result = hier_sort(machine, data)
    else:
        machine = Machine(dgx_a100(), scale=scale)
        if down_at is not None:
            machine.install_faults(FaultPlan(
                events=(GpuFail(at=down_at, gpu=5),)))
        if algorithm == "service":
            return _service_episode(machine, physical)
        payload = (np.arange(physical, dtype=np.int32) if values
                   else None)
        if algorithm.startswith("supervised-"):
            result = SortSupervisor(machine).sort(
                data, algorithm=algorithm[len("supervised-"):])
        elif algorithm == "p2p":
            result = p2p_sort(machine, data,
                              config=P2PConfig(**(config or {})),
                              values=payload)
        else:
            result = het_sort(machine, data,
                              config=HetConfig(**(config or {})),
                              values=payload)
    return {
        "duration": result.duration,
        "phases": result.phase_durations,
        "spans": _spans(machine),
    }


def main() -> None:
    record = {name: run_case(*args) for name, args in CASES.items()}
    json.dump(record, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
