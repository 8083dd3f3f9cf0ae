"""Section 5.3: multiway-merge memory bandwidth saturation.

The paper measures gnu_parallel::multiway_merge to saturate 71-94% of
the STREAM-sustainable memory bandwidth across the three systems, for
n in {2, 8, 32} billion integers split into k in {2, 4, 8} runs.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.bench.experiments.sort_scaling import PHYSICAL_KEYS
from repro.bench.report import Table
from repro.cpuprims.stream import (
    MERGE_SATURATION_HIGH,
    MERGE_SATURATION_LOW,
)
from repro.hw import system_by_name
from repro.runtime import Machine
from repro.runtime.cpu_ops import cpu_multiway_merge

SYSTEMS = ("ibm-ac922", "delta-d22x", "dgx-a100")


def merge_duration(system: str, billions: float, runs: int) -> float:
    """Simulated duration of one k-way merge of ``billions`` keys."""
    spec = system_by_name(system)
    machine = Machine(spec, scale=billions * 1e9 / PHYSICAL_KEYS)
    per_run = PHYSICAL_KEYS // runs
    rng = np.random.default_rng(0)
    arrays = [np.sort(rng.integers(0, 2**31 - 1, size=per_run,
                                   dtype=np.int32))
              for _ in range(runs)]
    out = np.empty(per_run * runs, dtype=np.int32)
    start = machine.env.now
    machine.run(cpu_multiway_merge(machine, out, arrays))
    return machine.env.now - start


def saturation_rows() -> List[Tuple[str, float, float, float, float]]:
    """(system, standalone GB/s, HET-effective GB/s, STREAM, saturation).

    Saturation counts total memory traffic (read + write = twice the
    output rate) of the *standalone* benchmark against the STREAM
    bandwidth, as the paper does (Section 5.3); the HET-effective rate
    is what the merge reaches inside the end-to-end sort (lower — the
    paper's own HET breakdowns imply it).
    """
    from repro.hw import calibration as cal

    rows = []
    for system in SYSTEMS:
        spec = system_by_name(system)
        standalone = cal.STANDALONE_MERGE_RATE[system] / 1e9
        seconds = merge_duration(system, 8.0, 4)
        het_effective = 8e9 * 4 / seconds / 1e9
        stream = spec.cpu.stream_bw / 1e9
        rows.append((system, standalone, het_effective, stream,
                     2 * standalone / stream))
    return rows


def run_merge_saturation() -> Table:
    """Regenerate the Section 5.3 saturation measurement."""
    table = Table(["system", "standalone [GB/s]", "in HET sort [GB/s]",
                   "STREAM [GB/s]", "saturation", "paper band"],
                  title="Section 5.3: multiway merge vs STREAM bandwidth")
    for system, standalone, het_rate, stream, saturation in saturation_rows():
        table.add_row(system, f"{standalone:.1f}", f"{het_rate:.1f}",
                      f"{stream:.1f}", f"{saturation:.0%}",
                      f"{MERGE_SATURATION_LOW:.0%}-"
                      f"{MERGE_SATURATION_HIGH:.0%}")
    return table
