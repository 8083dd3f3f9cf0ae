"""NUMA-aware input placement (Section 7, implemented).

The paper stores all input in NUMA node 0's memory and observes that
this makes involving the AC922's remote GPUs infeasible: every copy to
GPUs 2/3 crosses the X-Bus.  Its discussion notes the conditional —
*"if the input data resides in the host memory of a single NUMA
node"*.  This module implements the other branch: stage each GPU's
chunk in the host memory of the GPU's *own* NUMA node, so every
CPU-GPU copy is node-local.

Two accounting modes:

* ``charge_redistribution=True`` (default) — the input genuinely sits
  on node 0 first; moving the remote GPUs' chunks to node 1 is paid as
  host-to-host flows over the CPU interconnect (phase
  ``Redistribute``).  This answers: is it worth shuffling first?
* ``charge_redistribution=False`` — the data was *loaded* NUMA-spread
  to begin with (e.g. a partitioned table); only the placement benefit
  shows.  This answers: what should a NUMA-aware database do?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.runtime.buffer import HostBuffer
from repro.runtime.context import Machine
from repro.runtime.memcpy import copy_async, span

#: Input placement strategies.
NODE0 = "node0"
NUMA_LOCAL = "numa-local"


@dataclass
class PlacedChunk:
    """One GPU's chunk staged on a chosen NUMA node."""

    gpu_id: int
    staging: HostBuffer
    #: Range of the original input this chunk covers.
    src_start: int
    src_stop: int


def place_chunks(machine: Machine, host_in: HostBuffer,
                 gpu_ids: Sequence[int],
                 ranges: Sequence[Tuple[int, int]],
                 placement: str = NODE0,
                 charge_redistribution: bool = False) -> List[PlacedChunk]:
    """Stage per-GPU input chunks according to ``placement``.

    ``ranges`` gives each GPU's ``(start, stop)`` slice of the input.
    A chunk staged on the input's own NUMA node (every chunk under
    ``node0``) is a view of the input.  Under ``numa-local`` every
    other chunk gets a staging buffer on its GPU's node, and its
    payload moves there once: by the charged :func:`redistribute` with
    ``charge_redistribution``, or here, uncharged, without it.
    """
    chunks: List[PlacedChunk] = []
    for gpu_id, (start, stop) in zip(gpu_ids, ranges):
        view = host_in.data[start:stop]
        numa = host_in.numa
        if placement == NUMA_LOCAL:
            numa = machine.spec.gpu_numa[machine.spec.gpu_name(gpu_id)]
        if numa == host_in.numa:
            staging = HostBuffer(view, numa=numa, pinned=host_in.pinned)
        else:
            staging = machine.host_buffer(
                np.empty_like(view) if charge_redistribution
                else view.copy(), numa=numa, pinned=host_in.pinned)
        chunks.append(PlacedChunk(gpu_id=gpu_id, staging=staging,
                                  src_start=start, src_stop=stop))
    return chunks


def redistribute(machine: Machine, host_in: HostBuffer,
                 chunks: Sequence[PlacedChunk],
                 phase: str = "Redistribute"):
    """Process: move the off-node chunks' payloads, charging the time.

    Chunks staged on the input's own node cost nothing; the others pay
    one concurrent host-to-host flow each over the CPU interconnect,
    whose copy lands the payload (see :func:`place_chunks`).
    """
    env = machine.env
    procs = []
    for chunk in chunks:
        if chunk.staging.numa == host_in.numa:
            continue
        source = HostBuffer(host_in.data[chunk.src_start:chunk.src_stop],
                            numa=host_in.numa, pinned=host_in.pinned)
        procs.append(env.process(copy_async(
            machine, span(chunk.staging), span(source), phase=phase)))
    if procs:
        yield env.all_of(procs)
    return None


def output_buffer_for(machine: Machine, gpu_id: int, out: HostBuffer,
                      start: int, stop: int, placement: str) -> HostBuffer:
    """Pinned host buffer over ``out[start:stop]``, one GPU's output slice.

    The GPU's DtoH copy lands straight in the sort's output array; under
    ``numa-local`` placement the slice is charged to the GPU's own NUMA
    node, otherwise to ``out``'s.
    """
    if placement == NUMA_LOCAL:
        numa = machine.spec.gpu_numa[machine.spec.gpu_name(gpu_id)]
    else:
        numa = out.numa
    return HostBuffer(out.data[start:stop], numa=numa, pinned=True)
