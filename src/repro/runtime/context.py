"""The :class:`Machine`: one simulated multi-GPU platform instance.

A machine binds a :class:`~repro.hw.systems.SystemSpec` to a fresh
simulation environment, flow network, trace, and per-GPU device state.
All higher-level code — the sorting algorithms, the interconnect
benchmarks — runs as processes inside a machine:

>>> from repro.hw import dgx_a100
>>> from repro.runtime import Machine
>>> machine = Machine(dgx_a100(), scale=1)
>>> machine.num_gpus
8
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Generator, List, Optional, Set, Union

import numpy as np

from repro.errors import RuntimeApiError
from repro.faults.policy import ResiliencePolicy, ResilienceStats
from repro.hw.systems import SystemSpec
from repro.runtime.buffer import HostBuffer
from repro.runtime.device import Device
from repro.sim.engine import Environment, Process
from repro.sim.flows import FlowNetwork
from repro.sim.trace import Trace


class Machine:
    """One simulated run context over a platform.

    Parameters
    ----------
    spec:
        The platform (from :mod:`repro.hw.systems` or a custom builder).
    scale:
        Logical bytes represented per physical byte.  ``scale=1`` is a
        fully functional run; benchmarks reproduce the paper's
        multi-billion-key experiments with small physical arrays and a
        large scale (see DESIGN.md).
    fast_functional:
        Accepted and ignored, so older callers keep working: every
        kernel takes its functional effect from NumPy
        (:mod:`repro.gpuprims.functional`).
    """

    def __init__(self, spec: SystemSpec, scale: float = 1.0,
                 fast_functional: bool = False):
        if scale < 1.0:
            raise RuntimeApiError(f"scale must be >= 1, got {scale}")
        self.spec = spec
        self.scale = float(scale)
        self.env = Environment()
        self.net = FlowNetwork(self.env)
        self.trace = Trace(self.env)
        self.devices: List[Device] = [
            Device(self, gpu_id=i, name=name,
                   spec=spec.gpu_specs[name],
                   numa=spec.gpu_numa[name])
            for i, name in enumerate(spec.gpu_names)
        ]
        #: Fault injector, installed via :meth:`install_faults`; ``None``
        #: on a healthy machine (the common case — hot paths gate on it).
        self.faults = None
        #: Observability recorder, installed via
        #: :meth:`enable_observability`; ``None`` (the default) keeps
        #: every hot path free of instrumentation cost.
        self.obs = None
        #: Retry/backoff/re-route behavior of the resilient runtime.
        self.resilience = ResiliencePolicy()
        #: Machine-wide recovery counters (sorts snapshot/delta these).
        self.resilience_stats = ResilienceStats()
        #: Sources of the copies in flight, by ``id`` of the array that
        #: owns their memory; see :func:`repro.runtime.memcpy.before_write`.
        self.in_flight: Dict[int, Set] = {}

    @contextmanager
    def resilience_override(self, policy: Optional[ResiliencePolicy]):
        """Scope ``policy`` to one call; ``None`` keeps the machine's.

        The machine's own policy is restored on exit, error paths
        included, so a per-call override never leaks onto the machine.
        """
        saved = self.resilience
        if policy is not None:
            self.resilience = policy
        try:
            yield
        finally:
            self.resilience = saved

    def install_faults(self, plan):
        """Install a :class:`~repro.faults.plan.FaultPlan` on the machine.

        Returns the live :class:`~repro.faults.injector.FaultInjector`.
        At most one plan per machine; install before running workloads
        so every scheduled fault window can fire.
        """
        from repro.faults.injector import FaultInjector

        if self.faults is not None:
            raise RuntimeApiError(
                "a fault plan is already installed on this machine")
        self.faults = FaultInjector(self, plan)
        if self.obs is not None:
            self.faults.obs = self.obs
        return self.faults

    def enable_observability(self, recorder=None):
        """Attach an event recorder to every instrumented component.

        Wires the engine loop, the flow network, each device's DMA
        engines, and the fault injector (present or installed later) to
        one :class:`~repro.obs.recorder.Recorder`.  Pass ``recorder``
        to supply a configured one; by default a fresh recorder is
        created.  Returns the live recorder.

        Recording never alters simulated timing — the recorder is
        strictly read-only — so an observed run is bit-identical (in
        simulated time) to a blind one.
        """
        from repro.obs.recorder import Recorder

        if self.obs is not None:
            raise RuntimeApiError(
                "observability is already enabled on this machine")
        if recorder is None:
            recorder = Recorder()
        self.obs = recorder
        self.env.obs = recorder
        self.net.obs = recorder
        for device in self.devices:
            device.engine_in._obs = recorder
            device.engine_out._obs = recorder
        if self.faults is not None:
            self.faults.obs = recorder
        return recorder

    # -- devices -----------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        """Number of GPUs on the platform."""
        return len(self.devices)

    def device(self, gpu_id: int) -> Device:
        """Device by GPU id."""
        try:
            return self.devices[gpu_id]
        except IndexError:
            raise RuntimeApiError(
                f"no GPU {gpu_id} on {self.spec.name} "
                f"({self.num_gpus} GPUs)") from None

    # -- host memory ---------------------------------------------------------
    def host_buffer(self, data: Union[np.ndarray, int], dtype=None,
                    numa: int = 0, pinned: bool = True) -> HostBuffer:
        """Wrap an array (or allocate ``n`` elements) as a host buffer.

        The paper stores all input data in the host memory of NUMA node
        0 and pins every transfer buffer (Section 4.2) — the defaults
        here.
        """
        if isinstance(data, (int, np.integer)):
            if dtype is None:
                raise RuntimeApiError(
                    "allocating by element count requires a dtype")
            data = np.empty(int(data), dtype=dtype)
        else:
            data = np.ascontiguousarray(data)
        if not 0 <= numa < len(self.spec.numa):
            raise RuntimeApiError(f"no NUMA node {numa} on {self.spec.name}")
        return HostBuffer(data, numa=numa, pinned=pinned)

    # -- execution -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.env.now

    def run(self, process: Union[Generator, Process]):
        """Run a top-level process to completion; returns its value."""
        if not isinstance(process, Process):
            process = self.env.process(process)
        return self.env.run(until=process)

    def logical_bytes(self, physical_bytes: float) -> float:
        """Physical payload bytes to the logical bytes they represent."""
        return physical_bytes * self.scale

    def __repr__(self) -> str:
        return (f"<Machine {self.spec.name} x{self.scale:g} "
                f"t={self.env.now:.6f}s>")
