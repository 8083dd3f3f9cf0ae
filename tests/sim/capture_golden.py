"""Capture golden traces for the determinism regression test.

Run from the repo root::

    PYTHONPATH=src python tests/sim/capture_golden.py > tests/sim/golden_determinism.json

The JSON records, for each reference sort run, the end-to-end duration,
the phase breakdown and every trace span (phase, actor, start, end,
bytes) with full float precision.  The committed golden was captured
from the pre-optimization allocator (the O(F^2) full-rescan
``FlowNetwork``), so matching it proves the incremental engine leaves
simulated time bit-identical.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from repro.data import generate
from repro.hw import dgx_a100
from repro.runtime import Machine
from repro.sort import het_sort, p2p_sort

CASES = {
    # (algorithm, physical keys, logical billions)
    "het-dgx-2b": ("het", 200_000, 2.0),
    "p2p-dgx-2b": ("p2p", 200_000, 2.0),
    "het-dgx-512b-ooc": ("het", 100_000, 512.0),
}


def run_case(algorithm: str, physical: int, billions: float):
    scale = billions * 1e9 / physical
    machine = Machine(dgx_a100(), scale=scale)
    data = generate(physical, "uniform", np.int32, seed=42)
    sort = p2p_sort if algorithm == "p2p" else het_sort
    result = sort(machine, data)
    spans = sorted(
        [s.phase, s.actor, s.start, s.end, s.bytes]
        for s in machine.trace.spans)
    return {
        "duration": result.duration,
        "phases": result.phase_durations,
        "spans": spans,
    }


def main() -> None:
    record = {name: run_case(*args) for name, args in CASES.items()}
    json.dump(record, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
