"""Co-running workloads: what "exclusive system usage" is worth.

The paper's evaluation assumes the sort owns the machine (Section 6).
This experiment injects two realistic neighbours — a scan-heavy query
saturating part of the host memory bandwidth, and another operator's
CPU-GPU copy stream — and measures each sorting algorithm's slowdown.

Expected shape: HET sort suffers most from memory-bandwidth pressure
(its CPU merge is bandwidth-bound, Section 5.3); P2P sort suffers most
from competing PCIe traffic on its copy phases; the NVSwitch merge
phase is immune to host-side noise.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.bench.experiments.sort_scaling import PHYSICAL_KEYS, make_keys
from repro.bench.report import Table
from repro.hw import system_by_name
from repro.runtime import Machine
from repro.runtime.background import start_copy_stream, start_memory_scan
from repro.sort import het_sort, p2p_sort
from repro.units import gb

_SCENARIOS = ("exclusive", "memory scan (40 GB/s)", "copy stream (1 GPU)")


def sort_under_load(system: str, algorithm: str, gpus: int,
                    scenario: str, billions: float = 2.0) -> float:
    """Duration of one sort while a background workload runs."""
    spec = system_by_name(system)
    machine = Machine(spec, scale=billions * 1e9 / PHYSICAL_KEYS)
    if scenario == "memory scan (40 GB/s)":
        start_memory_scan(machine, gb(40.0))
    elif scenario == "copy stream (1 GPU)":
        # A neighbour hammers an *uninvolved* GPU's CPU link.
        spare = spec.num_gpus - 1
        start_copy_stream(machine, spare)
    data = make_keys(n=PHYSICAL_KEYS)
    ids = spec.preferred_gpu_set(gpus)
    sorter = p2p_sort if algorithm == "p2p" else het_sort
    return sorter(machine, data, gpu_ids=ids).duration


def measure(system: str = "dgx-a100",
            gpus: int = 4) -> Dict[Tuple[str, str], float]:
    """Durations per (algorithm, scenario)."""
    return {(algorithm, scenario):
            sort_under_load(system, algorithm, gpus, scenario)
            for algorithm in ("p2p", "het")
            for scenario in _SCENARIOS}


def run_co_running(system: str = "dgx-a100", gpus: int = 4) -> Table:
    """The co-running interference table."""
    results = measure(system, gpus)
    table = Table(["algorithm", *(f"{s} [s]" for s in _SCENARIOS),
                   "worst slowdown"],
                  title=f"Co-running workloads on {system}, {gpus} GPUs, "
                        "2B keys")
    for algorithm in ("p2p", "het"):
        clean = results[(algorithm, "exclusive")]
        row = [f"{results[(algorithm, s)]:.3f}" for s in _SCENARIOS]
        worst = max(results[(algorithm, s)] for s in _SCENARIOS) / clean
        table.add_row(algorithm, *row, f"{worst:.2f}x")
    return table
