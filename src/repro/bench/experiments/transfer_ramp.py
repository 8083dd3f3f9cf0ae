"""Transfer-size ramp: bandwidth versus message size.

A classic interconnect microbenchmark (Li et al., Pearson et al.): tiny
transfers are latency-bound, large ones approach the link's sustained
bandwidth, with the half-bandwidth point around
``latency * bandwidth``.  The paper measures only 4 GB copies; this
ramp characterizes the modelled links across the whole range.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.report import Table
from repro.hw import system_by_name
from repro.runtime import Machine
from repro.runtime.memcpy import copy_async, span

#: Logical transfer sizes swept, in bytes.
RAMP_SIZES = tuple(4 * 2 ** exp for exp in range(8, 31, 2))  # 1 KB .. 4 GB


def transfer_seconds(system: str, src: Tuple[str, int],
                     dst: Tuple[str, int], nbytes: float) -> float:
    """Simulated duration of one copy of ``nbytes`` (logical)."""
    physical = 1024
    machine = Machine(system_by_name(system),
                      scale=max(1.0, nbytes / (physical * 4)))

    def endpoint(which):
        kind, index = which
        if kind == "host":
            return machine.host_buffer(np.zeros(physical, np.int32),
                                       numa=index)
        return machine.device(index).alloc(physical, np.int32)

    src_buf, dst_buf = endpoint(src), endpoint(dst)
    machine.run(copy_async(machine, span(dst_buf), span(src_buf)))
    return machine.now


def ramp(system: str, src: Tuple[str, int], dst: Tuple[str, int],
         sizes: Sequence[int] = RAMP_SIZES) -> List[Tuple[int, float]]:
    """(bytes, GB/s) points of the bandwidth ramp."""
    return [(size, size / transfer_seconds(system, src, dst, size) / 1e9)
            for size in sizes]


def half_bandwidth_size(points: Sequence[Tuple[int, float]]) -> int:
    """Smallest measured size reaching half the peak rate."""
    peak = max(rate for _, rate in points)
    for size, rate in points:
        if rate >= peak / 2:
            return size
    return points[-1][0]


def run_transfer_ramp() -> Table:
    """Bandwidth ramps for one characteristic path per system."""
    paths: Dict[str, Tuple[Tuple[str, int], Tuple[str, int], str]] = {
        "ibm-ac922": (("host", 0), ("gpu", 0), "HtoD over NVLink 2.0"),
        "delta-d22x": (("host", 0), ("gpu", 0), "HtoD over PCIe 3.0"),
        "dgx-a100": (("gpu", 0), ("gpu", 1), "P2P over NVSwitch"),
    }
    sizes = RAMP_SIZES
    columns, series = [], []
    halves = {}
    for system, (src, dst, label) in paths.items():
        points = ramp(system, src, dst, sizes)
        columns.append(f"{system} {label}")
        series.append([rate for _, rate in points])
        halves[system] = half_bandwidth_size(points)
    table = Table(["bytes", *columns],
                  title="Transfer-size ramp [GB/s]; half-bandwidth at "
                        + ", ".join(f"{system}: {size / 1e6:.1f} MB"
                                    for system, size in halves.items()))
    for row, size in enumerate(sizes):
        table.add_row(f"{size:>11,}",
                      *(f"{series[col][row]:.2f}"
                        for col in range(len(series))))
    return table
