"""Capture golden traces for the determinism regression test.

Run from the repo root::

    PYTHONPATH=src python tests/sim/capture_golden.py > tests/sim/golden_determinism.json

The JSON records, for each reference sort run, the end-to-end duration,
the phase breakdown and every trace span (phase, actor, start, end,
bytes) with full float precision.  The single-machine entries were
captured from the pre-optimization allocator (the O(F^2) full-rescan
``FlowNetwork``), so matching them proves the incremental engine leaves
simulated time bit-identical.  The hierarchical entries pin the cluster
sort: a fault-free 4-node run, a fault-free 16-node run whose exchange
waves are each one batched flow set (per-copy flows give other times
there), and a 4-node run that loses node 1 mid-Exchange.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from repro.data import generate
from repro.faults import FaultPlan
from repro.faults.events import NodeDown
from repro.hw import dgx_a100, make_cluster
from repro.runtime import Machine
from repro.sort import het_sort, hier_sort, p2p_sort

CASES = {
    # (algorithm, physical keys, logical billions[, fat-tree nodes,
    #  NodeDown time of node 1])
    "het-dgx-2b": ("het", 200_000, 2.0),
    "p2p-dgx-2b": ("p2p", 200_000, 2.0),
    "het-dgx-512b-ooc": ("het", 100_000, 512.0),
    "hier-fattree-4": ("hier", 60_000, 2.0, 4),
    "hier-fattree-16": ("hier", 32_000, 2.048, 16),
    "hier-nodedown-4": ("hier", 60_000, 2.0, 4, 0.117),
}


def run_case(algorithm: str, physical: int, billions: float,
             nodes: int = 0, node_down_at: float = None):
    scale = billions * 1e9 / physical
    data = generate(physical, "uniform", np.int32, seed=42)
    if algorithm == "hier":
        machine = Machine(make_cluster("dgx-a100", nodes, fabric="fat-tree"),
                          scale=scale)
        if node_down_at is not None:
            machine.install_faults(FaultPlan(
                events=(NodeDown(at=node_down_at, node=1),)))
        result = hier_sort(machine, data)
    else:
        machine = Machine(dgx_a100(), scale=scale)
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
