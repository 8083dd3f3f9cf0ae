"""Measured and traced runs of one workload (see ``run.py`` for the command).

:func:`measure` gives the end-to-end metrics with tracing off: the
workload is set up and run repeatedly on the inputs its seed generates
until the time budget is used, and medians are reported.  :func:`traced`
gives the per-layer table: one run under :class:`~perfbench.tracer.
LayerTracer`, checked against untraced runs of the same inputs.
"""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

from repro.errors import ReproError

from perfbench import tracer as layers
from perfbench.workloads import Outcome, Workload, sim_metrics

#: Inputs per measured run, each generated from its own seed derived
#: from the run's seed.  Per-input differences in the work (where the
#: splitters fall, which waves a lost node takes with it, how bursty the
#: arrivals are) then move a run's medians less.
INPUTS_PER_RUN = 3

#: Setup-only repetitions per measured run, on top of the setup of every
#: measured operation; ``setup_s`` is the median of all of them.
SETUP_REPEATS = 15

#: The traced run's layer buckets must sum to its wall within this share.
PARTITION_TOLERANCE = 0.05

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_gbps": "GB/sim_s",
    "goodput_jobs_per_s": "jobs/sim_s",
    "sim_p50_s": "sim_s",
    "sim_p99_s": "sim_s",
}

#: Per-layer metrics (``--trace 1``) and their units: self time and
#: boundary crossings of every layer, then the layers' own counts.
PER_LAYER: Dict[str, str] = {
    **{f"{layer.name}.{kind}": unit for layer in layers.LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "other.self_s": "s",
    "sim.solver.fills": "count",
    "sim.solver.flows_per_fill": "flows",
    "sim.solver.small_fills": "count",
    "sim.engine.events_retired": "count",
    "sim.engine.events_dispatched": "count",
    "sim.engine.dispatch_ratio": "ratio",
    "sim.engine.dispatched_per_s": "1/s",
    "hw.topology.route_hits": "count",
    "hw.topology.route_misses": "count",
    **{f"{layer}.keys": "count" for layer in layers.KEY_LAYERS},
    "runtime.memcpy.copies": "count",
    "runtime.memcpy.retries": "count",
    "runtime.memcpy.reroutes": "count",
    "recovery.checkpoints": "count",
    "recovery.replans": "count",
    "recovery.waves_replayed": "count",
    "serve.offered": "count",
    "serve.admitted": "count",
    "serve.rejected": "count",
    "serve.deadline_missed": "count",
    "serve.completed": "count",
    "serve.queue_wait_sim_s": "sim_s",
    "import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "model.sim_s": "sim_s",
    "model.events_retired": "count",
    "model.fills": "count",
    "model.paper_err": "ln-ratio",
}


@dataclass
class Report:
    """One run's verdict and metric values."""

    correct: bool
    attempted: int
    failed: int
    values: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def metrics(self, units: Dict[str, str]) -> Dict[str, dict]:
        """``{name: {"value", "unit"}}`` for every metric in ``units``."""
        return {name: {"value": self.values.get(name, 0), "unit": unit}
                for name, unit in units.items()}


def _warm_up(workload: Workload, seed: int) -> None:
    """Run the tiny size of the workload once, untimed, so lazy imports
    and first-call costs stay out of the samples."""
    tiny = type(workload)(tiny=True)
    state = tiny.setup(seed)
    tiny.check(state, tiny.run(state))


def _timed_setup(workload: Workload, seed: int, profile: bool = False):
    gc.collect()
    start = perf_counter()
    state = workload.setup(seed, profile=profile)
    return state, perf_counter() - start


def _compare(label: str, ref: Outcome, other: Outcome,
             problems: List[str]) -> int:
    """Record every field where ``other`` differs from ``ref``; returns
    how many do."""
    differ = 0
    for name in ("latencies", "span_s", "gb", "model", "counters", "digest",
                 "correct"):
        a, b = getattr(ref, name), getattr(other, name)
        if a != b:
            problems.append(f"{label}: {name} differs: {a!r} != {b!r}")
            differ += 1
    return differ


def input_seeds(seed: int) -> List[int]:
    """Seeds of the :data:`INPUTS_PER_RUN` inputs a run's seed stands for."""
    return [seed * INPUTS_PER_RUN + i for i in range(INPUTS_PER_RUN)]


def measure(workload: Workload, seed: int, seconds: float) -> Report:
    """End-to-end metrics of repeated untraced runs of ``workload``.

    The operations cycle over the run's inputs, each set up afresh, until
    every input ran once and ``seconds`` are used.  An input run again
    must reproduce its first run's simulated metrics and outputs
    exactly; the simulated metrics pool the inputs' first runs.
    """
    seeds = input_seeds(seed)
    _warm_up(workload, seed)
    start = perf_counter()
    setups = []
    for i in range(SETUP_REPEATS):
        state, took = _timed_setup(workload, seeds[i % len(seeds)])
        setups.append(took)
        del state
    walls: List[float] = []
    firsts: Dict[int, Outcome] = {}
    problems: List[str] = []
    attempted = failed = wrong = 0
    ops = 0
    while True:
        began = perf_counter()
        input_seed = seeds[ops % len(seeds)]
        ops += 1
        state, took = _timed_setup(workload, input_seed)
        setups.append(took)
        t0 = perf_counter()
        try:
            result = workload.run(state)
        except ReproError as exc:
            attempted += 1
            failed += 1
            problems.append(f"{workload.name}: {type(exc).__name__}: {exc}")
        else:
            walls.append(perf_counter() - t0)
            outcome = workload.check(state, result)
            attempted += outcome.attempted
            failed += outcome.failed
            wrong += not outcome.correct
            problems.extend(outcome.problems)
            if input_seed in firsts:
                wrong += _compare("repeat run", firsts[input_seed], outcome,
                                  problems)
            else:
                firsts[input_seed] = outcome
            del result
        del state
        now = perf_counter()
        if ops >= len(seeds) and now + (now - began) - start > seconds:
            break
    if not firsts:
        raise RuntimeError("every operation failed:\n" + "\n".join(problems))
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    sim, tail = sim_metrics(list(firsts.values()))
    if tail < workload.latency_tail:
        raise RuntimeError(f"{workload.name}: only {tail} completions "
                           "beyond the tail percentile")
    values.update(sim)
    return Report(correct=wrong == 0, attempted=attempted, failed=failed, values=values,
                  problems=problems,
                  samples={"wall_s": walls, "setup_s": setups})


def traced(workload: Workload, seed: int, import_s: float) -> Report:
    """Per-layer metrics of one traced run of ``workload``, on the first
    input of the run's seed.

    The traced interval covers setup and the operation.  It is checked
    against two untraced runs of the same inputs: every simulated
    metric, model statistic, counter and output must be identical, and
    the layer buckets must partition the traced wall.  The first
    untraced run pays for the process's first touch of full-size
    memory, so the faster one is the reference for ``trace.overhead_s``.
    """
    seed = input_seeds(seed)[0]
    _warm_up(workload, seed)
    problems: List[str] = []
    refs = []
    for _ in range(2):
        state, setup_s = _timed_setup(workload, seed, profile=True)
        t0 = perf_counter()
        result = workload.run(state)
        wall_s = perf_counter() - t0
        refs.append((setup_s + wall_s, wall_s, workload.check(state, result)))
        del state, result
    wrong = _compare("repeat run", refs[0][2], refs[1][2], problems)
    ref_total, ref_wall, ref = min(refs, key=lambda entry: entry[0])

    tracer = layers.LayerTracer()
    tracer.install()
    try:
        gc.collect()
        tracer.start()
        state = workload.setup(seed, profile=True)
        result = workload.run(state)
        tracer.stop()
    finally:
        tracer.uninstall()
    out = workload.check(state, result)
    problems.extend(ref.problems + out.problems)
    wrong += _compare("traced run", ref, out, problems)

    buckets = sum(tracer.self_s.values())
    if abs(buckets - tracer.wall_s) > PARTITION_TOLERANCE * tracer.wall_s:
        problems.append(f"layer buckets sum to {buckets:.4f} s but the "
                        f"traced wall is {tracer.wall_s:.4f} s")
        wrong += 1

    counts = tracer.counters
    fills = counts.get("sim.solver.fills", 0)
    dispatched = out.counters["sim.engine.events_dispatched"]
    values: Dict[str, float] = {}
    for layer in layers.LAYERS:
        values[f"{layer.name}.self_s"] = tracer.self_s.get(layer.name, 0.0)
        values[f"{layer.name}.calls"] = tracer.calls.get(layer.name, 0)
    values.update({
        "other.self_s": tracer.self_s.get(layers.OTHER, 0.0),
        **counts,
        "sim.solver.flows_per_fill":
            counts.get("sim.solver.flows", 0) / fills if fills else 0.0,
        "sim.engine.dispatch_ratio":
            dispatched / out.counters["sim.engine.events_retired"],
        "sim.engine.dispatched_per_s": dispatched / ref_wall,
        **out.counters,
        **out.model,
        "import_s": import_s,
        "trace.wall_s": tracer.wall_s,
        "trace.overhead_s": tracer.wall_s - ref_total,
    })
    runs = [entry[2] for entry in refs] + [out]
    return Report(correct=wrong == 0 and all(run.correct for run in runs),
                  attempted=sum(run.attempted for run in runs),
                  failed=sum(run.failed for run in runs),
                  values=values, problems=problems)
