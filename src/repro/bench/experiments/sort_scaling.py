"""Figures 1 and 12-14: multi-GPU sort scaling and phase breakdowns.

``sort_duration`` is the workhorse shared by the figure runners and the
benchmark suite: one simulated end-to-end sort of N billion uniformly
distributed keys on a chosen system, algorithm and GPU set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.report import Table, comparison_table, series_table
from repro.data import generate
from repro.hw import system_by_name
from repro.runtime import Machine
from repro.runtime.cpu_ops import cpu_sort
from repro.sort import HetConfig, P2PConfig, SortResult, het_sort, p2p_sort

#: Physical keys per simulated run; the scale factor supplies the
#: billions.  The paper reports the mean of 10 runs; the simulator is
#: deterministic, so one run per configuration suffices.
PHYSICAL_KEYS = 500_000

# Figure 12/13/14 (bottom): total durations at 2B keys per GPU count.
PAPER_TOTALS_2B: Dict[Tuple[str, str], Dict[int, float]] = {
    ("ibm-ac922", "p2p"): {1: 0.35, 2: 0.24, 4: 0.45},
    ("ibm-ac922", "het"): {1: 0.35, 2: 0.35, 4: 0.45},
    ("delta-d22x", "p2p"): {1: 1.37, 2: 0.74, 4: 0.64},
    ("delta-d22x", "het"): {1: 1.37, 2: 0.90, 4: 0.64},
    ("dgx-a100", "p2p"): {1: 0.72, 2: 0.38, 4: 0.25, 8: 0.24},
    ("dgx-a100", "het"): {1: 0.72, 2: 0.56, 4: 0.39, 8: 0.37},
}

# Figure 1: sorting 16 GB (4B int32) on the DGX A100.
PAPER_FIG1: Dict[str, float] = {
    "PARADIS (CPU)": 2.25,
    "Thrust (1 GPU)": 1.47,
    "P2P sort (2 GPUs)": 0.75,
    "P2P sort (4 GPUs)": 0.45,
    "HET sort (2 GPUs)": 1.09,
    "HET sort (4 GPUs)": 0.75,
}


def make_keys(distribution: str = "uniform", dtype=np.int32,
              seed: int = 42, n: int = PHYSICAL_KEYS) -> np.ndarray:
    """The standard physical workload array."""
    return generate(n, distribution, dtype, seed=seed)


def sort_run(system: str, algorithm: str, gpus: int, billions: float,
             distribution: str = "uniform", dtype=np.int32,
             config=None, gpu_ids: Optional[Sequence[int]] = None,
             seed: int = 42) -> SortResult:
    """One end-to-end simulated sort; returns the full result."""
    spec = system_by_name(system)
    scale = billions * 1e9 / PHYSICAL_KEYS
    machine = Machine(spec, scale=scale)
    data = make_keys(distribution, dtype, seed=seed)
    if gpu_ids is None:
        gpu_ids = spec.preferred_gpu_set(gpus)
    if algorithm == "p2p" and gpus > 1:
        return p2p_sort(machine, data, gpu_ids=gpu_ids,
                        config=config if isinstance(config, P2PConfig)
                        else None)
    # The single-GPU baseline and HET sort share one code path (plain
    # Thrust for one GPU: HtoD, sort, DtoH, no merge).
    return het_sort(machine, data, gpu_ids=gpu_ids,
                    config=config if isinstance(config, HetConfig) else None)


def sort_duration(system: str, algorithm: str, gpus: int,
                  billions: float, **kwargs) -> float:
    """End-to-end duration in simulated seconds."""
    return sort_run(system, algorithm, gpus, billions, **kwargs).duration


def cpu_sort_duration(system: str, billions: float,
                      primitive: Optional[str] = None) -> float:
    """CPU-only baseline duration (PARADIS by default)."""
    spec = system_by_name(system)
    scale = billions * 1e9 / PHYSICAL_KEYS
    machine = Machine(spec, scale=scale)
    buffer = machine.host_buffer(make_keys())
    start = machine.env.now
    machine.run(cpu_sort(machine, buffer, primitive=primitive))
    return machine.env.now - start


def max_billions_in_core(system: str, gpus: int, itemsize: int = 4) -> float:
    """Largest data size (billions of keys) fitting a P2P sort."""
    spec = system_by_name(system)
    capacity = min(spec.gpu_specs[name].memory_bytes
                   for name in spec.gpu_names)
    return gpus * capacity / (2 * itemsize) / 1e9


def scaling_series(system: str, algorithm: str, gpu_counts: Sequence[int],
                   billions_list: Sequence[float]
                   ) -> Dict[int, List[Tuple[float, float]]]:
    """Duration series per GPU count over increasing data sizes.

    P2P series stop at the GPUs' combined memory; HET continues
    (out-of-core capable).  Returns ``{g: [(billions, seconds), ...]}``.
    """
    series: Dict[int, List[Tuple[float, float]]] = {}
    for gpus in gpu_counts:
        points = []
        for billions in billions_list:
            if (algorithm == "p2p"
                    and billions > max_billions_in_core(system, gpus)):
                continue
            points.append((billions,
                           sort_duration(system, algorithm, gpus, billions)))
        series[gpus] = points
    return series


def breakdown_table(system: str, algorithm: str,
                    gpu_counts: Sequence[int],
                    billions: float = 2.0) -> Table:
    """Phase breakdown at a fixed size (Figures 12-14, bottom)."""
    paper = PAPER_TOTALS_2B.get((system, algorithm), {})
    table = Table(["GPUs", "HtoD [s]", "Sort [s]", "Merge [s]", "DtoH [s]",
                   "total [s]", "paper [s]", "ratio"],
                  title=f"{system} {algorithm.upper()} sort, "
                        f"{billions:g}B uniform int32")
    for gpus in gpu_counts:
        result = sort_run(system, algorithm, gpus, billions)
        phases = result.phase_durations
        reference = paper.get(gpus)
        table.add_row(
            gpus,
            f"{phases.get('HtoD', 0.0):.3f}",
            f"{phases.get('Sort', 0.0):.3f}",
            f"{phases.get('Merge', 0.0):.3f}",
            f"{phases.get('DtoH', 0.0):.3f}",
            f"{result.duration:.3f}",
            f"{reference:.2f}" if reference else "-",
            f"{result.duration / reference:.2f}x" if reference else "-",
        )
    return table


def _figure(system: str, gpu_counts: Sequence[int],
            billions_list: Sequence[float], figure: str) -> List[Table]:
    tables = []
    for algorithm in ("p2p", "het"):
        series = scaling_series(system, algorithm, gpu_counts, billions_list)
        sizes = sorted({b for points in series.values() for b, _ in points})
        columns, data = [], []
        for gpus, points in series.items():
            lookup = dict(points)
            columns.append(f"{gpus} GPU{'s' if gpus > 1 else ''}")
            data.append([lookup.get(b, float("nan")) for b in sizes])
        tables.append(series_table(
            f"{figure} ({algorithm.upper()} sort, top): duration vs keys "
            f"on {system}", "keys [1e9]", sizes, columns, data))
        tables.append(breakdown_table(system, algorithm, gpu_counts))
    return tables


def run_fig12() -> List[Table]:
    """Figure 12: multi-GPU sort performance on the IBM AC922."""
    return _figure("ibm-ac922", (1, 2, 4), (1.0, 2.0, 4.0, 8.0), "Figure 12")


def run_fig13() -> List[Table]:
    """Figure 13: multi-GPU sort performance on the DELTA D22x."""
    return _figure("delta-d22x", (1, 2, 4), (1.0, 2.0, 4.0, 8.0), "Figure 13")


def run_fig14() -> List[Table]:
    """Figure 14: multi-GPU sort performance on the DGX A100."""
    return _figure("dgx-a100", (1, 2, 4, 8), (2.0, 4.0, 8.0, 16.0),
                   "Figure 14")


def run_fig1() -> Table:
    """Figure 1: sorting 16 GB on the DGX A100, CPU vs GPUs."""
    billions = 4.0
    rows = [
        ("PARADIS (CPU)", cpu_sort_duration("dgx-a100", billions,
                                            primitive="paradis"),
         PAPER_FIG1["PARADIS (CPU)"]),
        ("Thrust (1 GPU)", sort_duration("dgx-a100", "het", 1, billions),
         PAPER_FIG1["Thrust (1 GPU)"]),
        ("P2P sort (2 GPUs)", sort_duration("dgx-a100", "p2p", 2, billions),
         PAPER_FIG1["P2P sort (2 GPUs)"]),
        ("P2P sort (4 GPUs)", sort_duration("dgx-a100", "p2p", 4, billions),
         PAPER_FIG1["P2P sort (4 GPUs)"]),
        ("HET sort (2 GPUs)", sort_duration("dgx-a100", "het", 2, billions),
         PAPER_FIG1["HET sort (2 GPUs)"]),
        ("HET sort (4 GPUs)", sort_duration("dgx-a100", "het", 4, billions),
         PAPER_FIG1["HET sort (4 GPUs)"]),
    ]
    return comparison_table("Figure 1: sorting 16 GB on the DGX A100",
                            "configuration", rows,
                            value_formatter=lambda v: f"{v:7.3f}",
                            unit="s")
