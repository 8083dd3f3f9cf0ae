"""Multi-node cluster benchmark: hierarchical sort at 4-64 nodes.

Scales the paper's platforms out to the clusters of
:mod:`repro.hw.cluster` and measures two things per (fabric, node
count) scenario:

* **sorted throughput** — logical GB sorted per simulated second by
  the hierarchical sort (node-local P2P sort + fabric exchange +
  host merge), under weak scaling (fixed keys per node);
* **engine throughput** — events retired per wall-clock second, the
  simulator-core cost of running 100s of GPUs and 1000s of links in
  one event loop.

The 64-node scenarios are the hard gate of the scale-out work: they
must *complete* on all three fabric generators, and events/sec at 64
nodes must stay within 4x of the 4-node rate even though the link
count grows ~7x — i.e. per-event cost degrades sub-linearly in link
count (precomputed routing tables, per-link membership-index scaling
in the flow solver, batched fabric-flow reallocation).  The gate is
checked in-process: a full run raises if it fails.

Each scenario row records its topology size (nodes, GPUs, links) and
the routing-cache counters; the record's provenance block carries the
largest graph's counts so a regression is attributable to topology
size, not just an opaque config hash.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.bench.report import Table, write_bench_record
from repro.data import generate
from repro.errors import ReproError
from repro.hw import FABRICS, make_cluster
from repro.runtime import Machine
from repro.sim.engine import SimProfile
from repro.sort import hier_sort

#: Physical keys per node (weak scaling: the input grows with the
#: cluster).  Small enough that NumPy work does not mask engine cost.
KEYS_PER_NODE = 16_384
#: Logical keys per physical key — ~4 GB of logical data per node.
SCALE = 64_000.0
#: RNG seed for the input data (and the record's provenance).
SEED = 42

#: Node counts of the full sweep; quick runs only the smallest.
FULL_NODE_COUNTS = (4, 16, 64)
QUICK_NODE_COUNTS = (4,)
#: The gate compares the largest against the smallest full count.
GATE_MIN_RATIO = 0.25


@dataclass
class ScenarioResult:
    """One (platform, fabric, node count) scenario's measurements."""

    name: str
    nodes: int
    fabric: str
    counts: Dict[str, int]
    sim_s: float
    wall_s: float
    logical_bytes: float
    events: int
    full_reallocations: int
    batched_starts: int
    routing: Dict[str, object]
    profile: Optional[Dict[str, object]] = None

    @property
    def sorted_gb_per_s(self) -> float:
        """Logical GB sorted per simulated second."""
        return (self.logical_bytes / 1e9 / self.sim_s
                if self.sim_s > 0 else 0.0)

    @property
    def events_per_sec(self) -> float:
        """Engine events retired per wall-clock second."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def to_json(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "nodes": self.nodes,
            "gpus": self.counts["gpus"],
            "links": self.counts["links"],
            "vertices": self.counts["vertices"],
            "sim_s": self.sim_s,
            "wall_s": self.wall_s,
            "sorted_gb_per_s": self.sorted_gb_per_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "full_reallocations": self.full_reallocations,
            "batched_starts": self.batched_starts,
            # Nested: informational, not regression-diffed (wall-based
            # and host-dependent).
            "routing": self.routing,
        }
        if self.profile is not None:
            record["profile"] = self.profile
        return record


def run_scenario(base: str, nodes: int, fabric: str) -> ScenarioResult:
    """Build the cluster, run one hierarchical sort, collect counters."""
    spec = make_cluster(base, nodes, fabric=fabric)
    machine = Machine(spec, scale=SCALE)
    if PROFILE:
        machine.env.profile = SimProfile()
    data = generate(KEYS_PER_NODE * nodes, "uniform", np.int32, seed=SEED)
    t0 = time.perf_counter()
    result = hier_sort(machine, data)
    wall = time.perf_counter() - t0
    if not np.array_equal(result.output, np.sort(data)):
        raise ReproError(f"{spec.name}: hierarchical sort output is "
                         "not the sorted input")
    routing = dict(spec.topology.routes.stats())
    return ScenarioResult(
        name=spec.name, nodes=nodes, fabric=fabric,
        counts=spec.counts(), sim_s=result.duration, wall_s=wall,
        logical_bytes=result.logical_keys * data.dtype.itemsize,
        events=machine.env.events_retired,
        full_reallocations=machine.net.full_reallocations,
        batched_starts=machine.net.batched_starts,
        routing=routing,
        profile=(machine.env.profile.to_json()
                 if machine.env.profile else None))


def _check_gate(results: List[ScenarioResult]) -> Dict[str, object]:
    """The 64-node scale-out gate; raises when it fails.

    For every fabric present at both the smallest and the largest node
    count: events/sec at the largest must be at least
    :data:`GATE_MIN_RATIO` of the smallest's — sub-linear per-event
    degradation in link count.
    """
    by_key = {(r.fabric, r.nodes): r for r in results
              if r.name.startswith("dgx")}
    gate: Dict[str, object] = {"min_ratio": GATE_MIN_RATIO, "fabrics": {}}
    lo, hi = min(FULL_NODE_COUNTS), max(FULL_NODE_COUNTS)
    for fabric in FABRICS:
        small = by_key.get((fabric, lo))
        large = by_key.get((fabric, hi))
        if small is None or large is None:
            continue
        ratio = (large.events_per_sec / small.events_per_sec
                 if small.events_per_sec else 0.0)
        link_growth = large.counts["links"] / small.counts["links"]
        gate["fabrics"][fabric] = {  # type: ignore[index]
            "events_ratio": ratio,
            "link_growth": link_growth,
        }
        if ratio < GATE_MIN_RATIO:
            raise ReproError(
                f"scale-out gate failed on {fabric}: events/sec at "
                f"{hi} nodes is {ratio:.2f}x the {lo}-node rate "
                f"(minimum {GATE_MIN_RATIO}) while links grew "
                f"{link_growth:.1f}x")
    return gate


def run_cluster(quick: bool = False,
                json_path: Optional[str] = "BENCH_cluster.json") -> Table:
    """Run the cluster benchmark sweep and build its table."""
    node_counts = QUICK_NODE_COUNTS if quick else FULL_NODE_COUNTS
    if quick and json_path == "BENCH_cluster.json":
        # Don't clobber the committed full-sweep record from a smoke.
        json_path = None
    plan = [("dgx-a100", nodes, fabric)
            for fabric in FABRICS for nodes in node_counts]
    # Platform breadth: one small cluster of each other paper machine.
    plan += [("ibm-ac922", 4, "fat-tree"), ("delta-d22x", 4, "fat-tree")]

    results = [run_scenario(*args) for args in plan]
    gate = _check_gate(results) if not quick else None

    table = Table(
        ["cluster", "nodes", "gpus", "links", "sim [s]", "sorted GB/s",
         "events", "events/s", "route hit%"],
        title="Cluster hierarchical sort" + (" (quick)" if quick else ""))
    for r in results:
        table.add_row(
            r.name, r.nodes, r.counts["gpus"], r.counts["links"],
            f"{r.sim_s:.4f}", f"{r.sorted_gb_per_s:,.0f}",
            r.events, f"{r.events_per_sec:,.0f}",
            f"{r.routing['hit_rate']:.0%}")

    if json_path:
        largest = max(results, key=lambda r: r.counts["links"])
        record = {
            "benchmark": "cluster",
            "keys_per_node": KEYS_PER_NODE,
            "scale": SCALE,
            "profile": PROFILE,
            "scenarios": {r.name: r.to_json() for r in results},
        }
        if gate is not None:
            record["gate"] = gate
        write_bench_record(json_path, record, seed=SEED,
                           topology=largest.counts)
    return table


#: Set by the command line's ``--quick`` flag before the registry runs.
QUICK = False

#: Set by the command line's ``--record`` flag: write the benchmark
#: record to this path even under ``--quick`` (the CI cluster smoke
#: diffs it against the committed ``BENCH_cluster.json``).
RECORD_PATH: Optional[str] = None

#: Set by the command line's ``--profile`` flag: attach the engine
#: profiler to every scenario and emit per-phase cost breakdowns
#: (fills, calendar, heap, dispatch) into the BENCH record.
PROFILE = False


def run_cluster_entry() -> Table:
    """Registry entry point; honours ``--quick``/``--record``/``--profile``."""
    return run_cluster(quick=QUICK,
                       json_path=RECORD_PATH or "BENCH_cluster.json")
