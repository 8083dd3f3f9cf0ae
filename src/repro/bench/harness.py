"""Registry of all reproducible experiments.

Each :class:`Experiment` maps a paper table/figure (or an ablation) to
the runner that regenerates it.  The registry backs both the
``python -m repro.bench`` command line and the pytest-benchmark suite
in ``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Union

from repro.bench.experiments import (
    ablations,
    cluster,
    co_running,
    cpu_baselines,
    datatypes,
    distributions,
    extensions,
    large_data,
    local_copy,
    merge_saturation,
    resilience,
    service,
    simcore,
    sort_scaling,
    table2,
    transfer_ramp,
    transfers_cpu_gpu,
    transfers_p2p,
)
from repro.bench.report import Table
from repro.errors import ReproError

Runner = Callable[[], Union[Table, List[Table]]]


@dataclass(frozen=True)
class Experiment:
    """One regenerable experiment."""

    id: str
    title: str
    runner: Runner

    def run(self) -> List[Table]:
        """Execute and return the result tables."""
        result = self.runner()
        return result if isinstance(result, list) else [result]


EXPERIMENTS: List[Experiment] = [
    Experiment("table2", "Table 2: single-GPU sorting primitives",
               table2.run_table2),
    Experiment("fig1", "Figure 1: sorting 16 GB on the DGX A100",
               sort_scaling.run_fig1),
    Experiment("fig2", "Figure 2: CPU-GPU transfers, IBM AC922",
               transfers_cpu_gpu.run_fig2),
    Experiment("fig3", "Figure 3: CPU-GPU transfers, DELTA D22x",
               transfers_cpu_gpu.run_fig3),
    Experiment("fig4", "Figure 4: CPU-GPU transfers, DGX A100",
               transfers_cpu_gpu.run_fig4),
    Experiment("fig5", "Figure 5: P2P transfers, IBM AC922",
               transfers_p2p.run_fig5),
    Experiment("fig6", "Figure 6: P2P transfers, DELTA D22x",
               transfers_p2p.run_fig6),
    Experiment("fig7", "Figure 7: P2P transfers, DGX A100",
               transfers_p2p.run_fig7),
    Experiment("fig12", "Figure 12: sort scaling, IBM AC922",
               sort_scaling.run_fig12),
    Experiment("fig13", "Figure 13: sort scaling, DELTA D22x",
               sort_scaling.run_fig13),
    Experiment("fig14", "Figure 14: sort scaling, DGX A100",
               sort_scaling.run_fig14),
    Experiment("fig15a", "Figure 15a: HET approaches for large data",
               large_data.run_fig15a),
    Experiment("fig15b", "Figure 15b: HET sort vs CPU for large data",
               large_data.run_fig15b),
    Experiment("fig16", "Figure 16: varying data distributions",
               distributions.run_fig16),
    Experiment("datatypes", "Section 6.3: key data types",
               datatypes.run_datatypes),
    Experiment("cpu-baselines", "Section 6: CPU sort baselines",
               cpu_baselines.run_cpu_baselines),
    Experiment("local-copy", "Section 5.2: local copy vs P2P",
               local_copy.run_local_copy),
    Experiment("merge-saturation", "Section 5.3: merge bandwidth saturation",
               merge_saturation.run_merge_saturation),
    Experiment("ablation-gpu-order", "Ablation: P2P GPU set order",
               ablations.run_gpu_order),
    Experiment("ablation-pivot", "Ablation: pivot selection strategy",
               ablations.run_pivot_ablation),
    Experiment("ablation-swap", "Ablation: out-of-place swap overlap",
               ablations.run_swap_ablation),
    Experiment("ablation-overlap", "Ablation: copy/compute overlap value",
               ablations.run_overlap_value),
    Experiment("ext-multihop", "Extension: multi-hop P2P routing",
               extensions.run_multihop),
    Experiment("ext-rp-sort", "Extension: single-exchange RP sort",
               extensions.run_rp_sort),
    Experiment("ext-key-value", "Extension: key-value record sorting",
               extensions.run_key_value),
    Experiment("ext-numa-placement", "Extension: NUMA-aware input placement",
               extensions.run_numa_placement),
    Experiment("ext-gpu-merge", "Extension: GPU-merged chunk groups",
               extensions.run_gpu_merged_groups),
    Experiment("ext-transfer-ramp", "Extension: bandwidth vs transfer size",
               transfer_ramp.run_transfer_ramp),
    Experiment("ext-co-running", "Extension: co-running workloads",
               co_running.run_co_running),
    Experiment("simcore", "Simulator-core throughput (engine + allocator)",
               simcore.run_simcore_entry),
    Experiment("resilience", "Sorting under injected faults (fault model)",
               resilience.run_resilience_entry),
    Experiment("service", "Multi-tenant sort service under offered load",
               service.run_service_entry),
    Experiment("cluster", "Multi-node hierarchical sort over cluster fabrics",
               cluster.run_cluster_entry),
]

_BY_ID: Dict[str, Experiment] = {e.id: e for e in EXPERIMENTS}


def experiment_by_id(experiment_id: str) -> Experiment:
    """Look up one experiment."""
    try:
        return _BY_ID[experiment_id]
    except KeyError:
        known = ", ".join(e.id for e in EXPERIMENTS)
        raise ReproError(
            f"unknown experiment {experiment_id!r} (known: {known})"
        ) from None


def run_all(ids: Union[List[str], None] = None) -> None:
    """Run experiments (all by default) and print their tables."""
    chosen = (EXPERIMENTS if not ids
              else [experiment_by_id(i) for i in ids])
    for experiment in chosen:
        print(f"=== {experiment.title} ===")
        for table in experiment.run():
            table.print()
