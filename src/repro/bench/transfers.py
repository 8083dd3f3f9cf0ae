"""Data-transfer micro-benchmarks (the Section 4 methodology).

:func:`measure_throughput` reproduces the paper's measurement scheme:
every transfer copies a 4 GB pinned buffer; concurrent transfers start
together; a scenario's throughput is the total volume divided by the
time the *slowest* copy stream needs ("bidirectional data transfers are
bound by the slower copy stream", Section 4.2).
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ReproError
from repro.hw.systems import SystemSpec
from repro.runtime.context import Machine
from repro.runtime.memcpy import copy_async, span
from repro.units import GB

#: ("host", numa_index) or ("gpu", gpu_id).
Endpoint = Tuple[str, int]

#: Physical elements per transfer buffer in measurements (4 MB of
#: int32); with the default scale of 1000 one buffer represents the
#: paper's 4 GB.
_PHYSICAL_ELEMENTS = 1_000_000
_DEFAULT_SCALE = 1000.0

HOST = ("host", 0)


def gpu(gpu_id: int) -> Endpoint:
    """GPU endpoint shorthand."""
    return ("gpu", gpu_id)


def htod(gpu_id: int, numa: int = 0) -> Tuple[Endpoint, Endpoint]:
    """A host-to-device transfer descriptor."""
    return (("host", numa), ("gpu", gpu_id))


def dtoh(gpu_id: int, numa: int = 0) -> Tuple[Endpoint, Endpoint]:
    """A device-to-host transfer descriptor."""
    return (("gpu", gpu_id), ("host", numa))


def bidir(gpu_id: int, numa: int = 0) -> List[Tuple[Endpoint, Endpoint]]:
    """Both directions for one GPU, concurrently."""
    return [htod(gpu_id, numa), dtoh(gpu_id, numa)]


def p2p(src_gpu: int, dst_gpu: int) -> Tuple[Endpoint, Endpoint]:
    """A P2P transfer descriptor."""
    return (("gpu", src_gpu), ("gpu", dst_gpu))


def p2p_bidir(a: int, b: int) -> List[Tuple[Endpoint, Endpoint]]:
    """Bidirectional P2P between two GPUs."""
    return [p2p(a, b), p2p(b, a)]


def measure_throughput(
    spec_or_builder: Union[SystemSpec, Callable[[], SystemSpec]],
    transfers: Sequence[Tuple[Endpoint, Endpoint]],
    scale: float = _DEFAULT_SCALE,
    pinned: bool = True,
) -> float:
    """Aggregate throughput of concurrent transfers, in GB/s.

    Each transfer moves one 4 GB (logical) buffer; the result is the
    total logical volume over the completion time of the last stream.
    """
    if not transfers:
        raise ReproError("at least one transfer is required")
    spec = spec_or_builder() if callable(spec_or_builder) else spec_or_builder
    machine = Machine(spec, scale=scale)

    def make_buffer(endpoint: Endpoint):
        kind, index = endpoint
        if kind == "host":
            return machine.host_buffer(
                np.zeros(_PHYSICAL_ELEMENTS, np.int32), numa=index,
                pinned=pinned)
        if kind == "gpu":
            return machine.device(index).alloc(_PHYSICAL_ELEMENTS, np.int32)
        raise ReproError(f"unknown endpoint kind {kind!r}")

    def scenario():
        procs = []
        for src, dst in transfers:
            src_buf = make_buffer(src)
            dst_buf = make_buffer(dst)
            procs.append(machine.env.process(
                copy_async(machine, span(dst_buf), span(src_buf))))
        yield machine.env.all_of(procs)

    start = machine.env.now
    machine.run(scenario())
    elapsed = machine.env.now - start
    total_logical = len(transfers) * _PHYSICAL_ELEMENTS * 4 * scale
    return total_logical / elapsed / GB
