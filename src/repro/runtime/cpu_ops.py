"""Host-side compute operations: CPU sorting and multiway merging.

CPU compute is modelled as *flows through the NUMA node's memory
resource* rather than plain delays: a merge reads and writes every byte
through the same memory controller the GPU copy engines use, so running
it concurrently with CPU-GPU transfers slows both sides down.  This is
precisely the contention the paper observes for eager merging
(Section 6.2: "the transfers and the CPU merge compete for host memory
bandwidth") — here it emerges from the shared-resource model instead of
being hard-coded.

The functional effect (the host buffer ends up sorted or merged) comes
from :mod:`repro.gpuprims.functional`, the same NumPy helper the GPU
kernels use: the primitive picks the calibrated rate, not the result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.errors import RuntimeApiError
from repro.gpuprims.functional import sort_in_place
from repro.runtime.buffer import HostBuffer
from repro.runtime.memcpy import before_write
from repro.sim.resources import Direction

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import Machine


def _memory_route(machine: "Machine", numa: int):
    node = machine.spec.topology.node(machine.spec.numa_node_name(numa))
    memory = node.memory
    return ((memory, Direction.FWD), (memory, Direction.REV))


def cpu_sort(machine: "Machine", target: HostBuffer,
             primitive: Optional[str] = None, phase: str = "CPUSort"):
    """Process: sort a host buffer in place with a CPU primitive.

    ``primitive`` defaults to the platform's best baseline (PARADIS on
    all three systems for large data, Section 6).  Timing: a flow of
    the buffer's logical size through its NUMA node's memory, capped at
    the primitive's calibrated rate.
    """
    cpu = machine.spec.cpu
    if primitive is None:
        primitive = cpu.best_sort_primitive()
    rate = cpu.sort_rate(primitive)
    logical = target.nbytes * machine.scale
    start = machine.env.now
    flow = machine.net.start_flow(_memory_route(machine, target.numa),
                                  logical, rate_cap=rate,
                                  label=f"cpu-sort:{primitive}")
    yield flow.done
    before_write(machine, target.data)
    sort_in_place(target.data)
    machine.trace.record(phase, f"cpu{target.numa}", start, bytes=logical)
    return target


def cpu_multiway_merge(machine: "Machine", out: np.ndarray,
                       runs: Sequence[np.ndarray], numa: int = 0,
                       phase: str = "Merge",
                       values_out: Optional[np.ndarray] = None,
                       value_runs: Optional[Sequence[np.ndarray]] = None):
    """Process: k-way merge sorted ``runs`` into ``out`` on the CPU.

    Timing: a flow of the output's logical size through NUMA node
    ``numa``'s memory in both directions, capped at the calibrated
    gnu_parallel multiway-merge rate.  The merge occupies the memory
    controller for its whole duration, so concurrent GPU copies share
    the bandwidth (the Section 6.2 effect).

    Pass ``values_out``/``value_runs`` to merge key-value records;
    payload bytes add to the merged volume.
    """
    total = sum(run.size for run in runs)
    if total != out.size:
        raise RuntimeApiError(
            f"merge output size {out.size} != sum of runs {total}")
    if (values_out is None) != (value_runs is None):
        raise RuntimeApiError(
            "values_out and value_runs must be passed together")
    if value_runs is not None and ([len(v) for v in value_runs]
                                   != [len(run) for run in runs]):
        raise RuntimeApiError("need one value run per key run, of equal "
                              "length")
    logical = out.nbytes * machine.scale
    if values_out is not None:
        logical += values_out.nbytes * machine.scale
    start = machine.env.now
    rate = machine.spec.cpu.multiway_merge_rate_for(len(runs))
    flow = machine.net.start_flow(_memory_route(machine, numa), logical,
                                  rate_cap=rate, label="cpu-multiway-merge")
    try:
        yield flow.done
    except BaseException:
        # Cancelled (a supervised phase torn down): take the flow out of
        # the network before unwinding, as an interrupted copy does.
        if flow.active:
            machine.net.abort_flow(flow)
        raise
    before_write(machine, out, values_out)
    # The runs never alias the outputs: concatenate them there and sort.
    # A stable sort of concatenated sorted runs is their merge, ties in
    # run order.
    offset = 0
    for index, run in enumerate(runs):
        out[offset:offset + run.size] = run
        if values_out is not None:
            values_out[offset:offset + run.size] = value_runs[index]
        offset += run.size
    sort_in_place(out, values_out)
    machine.trace.record(phase, f"cpu{numa}", start, bytes=logical)
    return out
