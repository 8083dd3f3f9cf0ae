"""Table 2: single-GPU sorting primitives, 1B 32-bit integers on an A100.

Times the on-device sort kernel only (no transfers), matching the
paper's primitive comparison.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.bench.report import Table, comparison_table
from repro.hw import dgx_a100
from repro.runtime import Machine
from repro.runtime.kernels import sort_on_device
from repro.runtime.memcpy import span

PAPER_TABLE2_MS: Dict[str, float] = {
    "thrust": 36.0,
    "cub": 36.0,
    "stehle": 57.0,
    "mgpu": 200.0,
}

#: 1B 32-bit integers, represented by 1M physical keys at scale 1000.
_PHYSICAL = 1_000_000
_SCALE = 1000.0


def sort_duration_ms(primitive: str, gpu_model: str = "a100") -> float:
    """Simulated kernel time for 1B int32 on one GPU, in milliseconds."""
    machine = Machine(dgx_a100(), scale=_SCALE)
    device = machine.device(0)
    if gpu_model == "v100":
        from repro.hw import ibm_ac922
        machine = Machine(ibm_ac922(), scale=_SCALE)
        device = machine.device(0)
    buffer = device.alloc(_PHYSICAL, np.int32)
    buffer.data[:] = np.random.default_rng(0).integers(
        0, 2**31 - 1, size=_PHYSICAL, dtype=np.int32)
    start = machine.env.now
    machine.run(sort_on_device(machine, span(buffer),
                               primitive=primitive))
    return (machine.env.now - start) * 1e3


def measure() -> List[Tuple[str, float, float]]:
    """(primitive, measured_ms, paper_ms) rows."""
    return [(name, sort_duration_ms(name), paper)
            for name, paper in PAPER_TABLE2_MS.items()]


def run_table2() -> Table:
    """Regenerate Table 2."""
    table = comparison_table(
        "Table 2: NVIDIA A100 sorting 1B integers (4 GB)",
        "primitive", measure(),
        value_formatter=lambda v: f"{v:7.1f}", unit="ms")
    return table
