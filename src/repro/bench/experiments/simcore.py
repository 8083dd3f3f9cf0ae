"""Throughput benchmark of the simulator core itself.

Unlike every other experiment in this package, ``simcore`` does not
reproduce a paper figure — it measures how fast the discrete-event
engine and the incremental flow allocator execute, in *wall-clock*
terms.  Two scenario families stress the two regimes that dominate
simulation cost:

* **churn** — a flow-arrival storm on a topology where every flow
  crosses one shared bottleneck, so *every* arrival and completion
  forces a full water-filling pass over all active flows.  This is the
  worst case for the allocator: O(F) reallocations of O(F) flows each.
* **het** — a complete 8-GPU HET sort on the DGX A100 at a large scale
  factor (many chunk groups), i.e. the real workload mix of flow
  starts, disjoint fast paths, engine events and process scheduling.

Results are printed as a table and, for the full suite, written to
``BENCH_simcore.json`` together with the seed-tree baselines (the
pre-optimization allocator, measured on the same host) and the
resulting speedups.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.bench.report import Table, write_bench_record
from repro.data import generate
from repro.hw import dgx_a100
from repro.runtime import Machine
from repro.sim.engine import Environment, SimProfile
from repro.sim.flows import FlowNetwork
from repro.sim.resources import Direction, Resource

#: Wall-clock seconds of the same scenarios on the pre-optimization
#: simulator core (the seed tree: full-rescan allocator, per-flow
#: watcher processes), measured best-of-3 on the reference host.  They
#: anchor the speedup column; re-measure when porting to other hardware.
SEED_BASELINE_WALL_S: Dict[str, float] = {
    "churn-400": 4.178,
    "churn-800": 27.089,
    "het-8gpu-256b": 0.0655,
    "het-8gpu-2048b": 0.4067,
    # churn-1600 has no seed baseline: the scenario was added with the
    # vectorized core (the seed tree would take minutes on it).
}

#: Physical keys per simulated HET run (the scale factor supplies the
#: billions; small enough that NumPy work does not mask engine cost).
HET_PHYSICAL_KEYS = 100_000


@dataclass
class ScenarioResult:
    """Wall-clock and engine counters of one benchmark scenario."""

    name: str
    wall_s: float
    runs: List[float]
    sim_s: float
    events: int
    full_reallocations: int
    fast_starts: int
    fast_finishes: int
    completion_events: int
    profile: Optional[Dict[str, object]] = None

    @property
    def events_per_sec(self) -> float:
        """Engine events retired per wall-clock second."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def reallocations_per_sec(self) -> float:
        """Full water-filling passes per wall-clock second."""
        return (self.full_reallocations / self.wall_s
                if self.wall_s > 0 else 0.0)

    @property
    def run_spread_s(self) -> float:
        """Wall-clock spread (max - min) across the repeats."""
        return max(self.runs) - min(self.runs) if self.runs else 0.0

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable record, including derived rates."""
        record: Dict[str, object] = {
            "wall_s": self.wall_s,
            "runs": self.runs,
            "run_spread_s": self.run_spread_s,
            "sim_s": self.sim_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "full_reallocations": self.full_reallocations,
            "reallocations_per_sec": self.reallocations_per_sec,
            "fast_starts": self.fast_starts,
            "fast_finishes": self.fast_finishes,
            "completion_events": self.completion_events,
        }
        baseline = SEED_BASELINE_WALL_S.get(self.name)
        if baseline is not None:
            record["seed_baseline_wall_s"] = baseline
            record["speedup_vs_seed"] = baseline / self.wall_s
        if self.profile is not None:
            record["profile"] = self.profile
        return record


def run_churn(n_flows: int) -> ScenarioResult:
    """Flow-churn storm: ``n_flows`` arrivals sharing one bottleneck.

    Each flow crosses the shared resource plus a private link, so routes
    overlap pairwise (no disjoint fast path applies) and every arrival
    and completion triggers a full reallocation of all active flows.
    """
    env = Environment()
    net = FlowNetwork(env)
    shared = Resource("shared", 100.0)
    private = [Resource(f"private{i}", 1.0 + i % 7) for i in range(n_flows)]

    def arrivals():
        for i in range(n_flows):
            net.start_flow(
                [(shared, Direction.FWD), (private[i], Direction.FWD)],
                50.0 + i % 13, label=f"churn{i}")
            yield env.timeout(0.01)

    env.process(arrivals())
    if PROFILE:
        env.profile = SimProfile()
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    return ScenarioResult(
        name=f"churn-{n_flows}", wall_s=wall, runs=[wall], sim_s=env.now,
        events=env.events_retired,
        full_reallocations=net.full_reallocations,
        fast_starts=net.fast_starts, fast_finishes=net.fast_finishes,
        completion_events=net.completion_events,
        profile=env.profile.to_json() if env.profile else None)


def run_het(billions: float) -> ScenarioResult:
    """Full 8-GPU HET sort on the DGX A100 at ``billions`` billion keys."""
    from repro.sort import het_sort  # deferred: pulls in the sort stack

    scale = billions * 1e9 / HET_PHYSICAL_KEYS
    machine = Machine(dgx_a100(), scale=scale)
    data = generate(HET_PHYSICAL_KEYS, "uniform", np.int32, seed=42)
    if PROFILE:
        machine.env.profile = SimProfile()
    t0 = time.perf_counter()
    het_sort(machine, data)
    wall = time.perf_counter() - t0
    env, net = machine.env, machine.net
    return ScenarioResult(
        name=f"het-8gpu-{billions:g}b", wall_s=wall, runs=[wall],
        sim_s=env.now, events=env.events_retired,
        full_reallocations=net.full_reallocations,
        fast_starts=net.fast_starts, fast_finishes=net.fast_finishes,
        completion_events=net.completion_events,
        profile=env.profile.to_json() if env.profile else None)


def _best_of(repeats: int, runner, *args) -> ScenarioResult:
    """Run a scenario ``repeats`` times, keep the fastest wall-clock."""
    results = [runner(*args) for _ in range(max(1, repeats))]
    best = min(results, key=lambda r: r.wall_s)
    best.runs = sorted(r.wall_s for r in results)
    return best


def run_simcore(quick: bool = False, repeats: Optional[int] = None,
                json_path: Optional[str] = "BENCH_simcore.json") -> Table:
    """Run the simulator-core benchmark suite and build its table.

    ``quick`` runs the small scenarios once each (the perf smoke used by
    the test suite) and skips the JSON record; the full suite runs every
    scenario best-of-``repeats`` and writes ``json_path``.
    """
    if repeats is None:
        repeats = 1 if quick else 3
    if quick:
        plan = [(run_churn, 400), (run_het, 256.0)]
        if json_path == "BENCH_simcore.json":
            # Don't clobber the committed full-suite record from a smoke.
            json_path = None
    else:
        plan = [(run_churn, 400), (run_churn, 800), (run_churn, 1600),
                (run_het, 256.0), (run_het, 2048.0)]

    results = [_best_of(repeats, runner, arg) for runner, arg in plan]
    churn_scaling = _churn_scaling(results)

    table = Table(
        ["scenario", "wall [s]", "sim [s]", "events", "events/s",
         "reallocs", "reallocs/s", "fast start/finish", "speedup"],
        title="Simulator-core throughput"
              + (" (quick)" if quick else ""))
    for result in results:
        baseline = SEED_BASELINE_WALL_S.get(result.name)
        speedup = (f"{baseline / result.wall_s:.2f}x"
                   if baseline else "-")
        table.add_row(
            result.name, f"{result.wall_s:.3f}", f"{result.sim_s:.3f}",
            result.events, f"{result.events_per_sec:,.0f}",
            result.full_reallocations,
            f"{result.reallocations_per_sec:,.0f}",
            f"{result.fast_starts}/{result.fast_finishes}",
            speedup)

    if json_path:
        record = {
            "benchmark": "simcore",
            "seed_note": (
                "seed_baseline_wall_s measured on the same host from the "
                "pre-optimization tree (full-rescan allocator, watcher "
                "processes), best of 3"),
            "repeats": repeats,
            "profile": PROFILE,
            "scenarios": {r.name: r.to_json() for r in results},
        }
        if churn_scaling is not None:
            record["churn_scaling"] = churn_scaling
        write_bench_record(json_path, record)
    return table


def _churn_scaling(results: List[ScenarioResult]) -> Optional[Dict[str, object]]:
    """Events/sec scaling slope across the churn sizes.

    Fits ``log(events/sec) ~ slope * log(n_flows)`` over every churn
    scenario present.  Slope 0 is perfect scaling (throughput flat as
    flow count doubles); negative slopes quantify the superlinear
    slowdown the churn family exists to track.
    """
    churn = [(int(r.name.split("-")[1]), r.events_per_sec)
             for r in results if r.name.startswith("churn-")]
    if len(churn) < 2:
        return None
    churn.sort()
    sizes = np.array([n for n, _ in churn], dtype=float)
    rates = np.array([eps for _, eps in churn], dtype=float)
    slope = float(np.polyfit(np.log(sizes), np.log(rates), 1)[0])
    return {
        "sizes": [int(n) for n in sizes],
        "events_per_sec": [float(r) for r in rates],
        "slope": slope,
    }


#: Set by the command line's ``--quick`` flag before the registry runs.
QUICK = False

#: Set by the command line's ``--record`` flag: write the benchmark
#: record to this path even under ``--quick``.  The CI perf smoke uses
#: it to produce a record it can ``repro.obs diff`` against the
#: committed ``BENCH_simcore.json`` without clobbering it.
RECORD_PATH: Optional[str] = None

#: Set by the command line's ``--profile`` flag: attach a
#: :class:`~repro.sim.engine.SimProfile` to every scenario environment
#: and emit the per-phase cost breakdown into the BENCH record.  The
#: instrumentation adds wall-clock overhead, so profiled records carry
#: ``"profile": true`` (a different config hash) and are not
#: regression-compared against unprofiled ones.
PROFILE = False


def run_simcore_entry() -> Table:
    """Registry entry point; honours ``--quick`` and ``--record``."""
    return run_simcore(quick=QUICK,
                       json_path=RECORD_PATH or "BENCH_simcore.json")
