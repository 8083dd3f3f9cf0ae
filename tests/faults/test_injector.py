"""Unit tests of the fault injector's mechanics.

Each test drives one fault kind against a small real workload on a
scaled DGX A100 machine and checks both the effect during the window
and the exact restoration after it.
"""

import numpy as np
import pytest

from repro.errors import DeviceFaultError, RuntimeApiError
from repro.faults import FaultPlan
from repro.faults.events import (
    CopyEngineStall,
    GpuFail,
    LinkDegradation,
    LinkDown,
    StragglerGpu,
)
from repro.sim.engine import SimulationError
from repro.faults.injector import FaultRecord
from repro.hw import dgx_a100
from repro.runtime import Machine
from repro.runtime.kernels import sort_on_device
from repro.runtime.memcpy import copy_async, span

SCALE = 1e6  # 8 KB physical -> 8 GB logical: copies take ~0.3 sim-s


def _machine(plan=None) -> Machine:
    machine = Machine(dgx_a100(), scale=SCALE)
    if plan is not None:
        machine.install_faults(plan)
    return machine


def _htod(machine: Machine, gpu: int = 0, n: int = 1000) -> float:
    """One HtoD copy; returns its simulated duration."""
    device = machine.device(gpu)
    host = machine.host_buffer(np.arange(n, dtype=np.int64))
    dev = device.alloc(n, np.int64, label="t")
    start = machine.env.now

    def run():
        yield from copy_async(machine, span(dev), span(host))

    machine.run(run())
    assert np.array_equal(dev.data, host.data)
    return machine.env.now - start


def _kernel(machine: Machine, gpu: int = 0, n: int = 1000) -> float:
    """One on-device sort; returns its simulated duration."""
    device = machine.device(gpu)
    buf = device.alloc(n, np.int32, label="k")
    buf.data[:] = np.arange(n, dtype=np.int32)[::-1]
    start = machine.env.now

    def run():
        yield from sort_on_device(machine, span(buf))

    machine.run(run())
    return machine.env.now - start


class TestInstall:
    def test_unknown_resource_rejected_at_install(self):
        plan = FaultPlan(events=(
            LinkDown(at=0.0, resource="no_such_link", duration=1.0),))
        with pytest.raises(SimulationError, match="no_such_link"):
            _machine(plan)

    def test_unknown_gpu_rejected_at_install(self):
        plan = FaultPlan(events=(
            StragglerGpu(at=0.0, gpu=99, duration=1.0, slowdown=2.0),))
        with pytest.raises(SimulationError, match="99"):
            _machine(plan)

    def test_negative_gpu_rejected_at_plan_construction(self):
        with pytest.raises(SimulationError, match="-1"):
            FaultPlan(events=(GpuFail(at=0.0, gpu=-1),))

    def test_double_install_rejected(self):
        machine = _machine(FaultPlan.empty())
        with pytest.raises(RuntimeApiError):
            machine.install_faults(FaultPlan.empty())


class TestFailEvents:
    def test_healthy_gpus_fail_events_hold_no_stale_callbacks(self):
        # GPU 7 dies late, so every kernel races its GPU's fail event.
        machine = _machine(FaultPlan(events=(GpuFail(at=1e3, gpu=7),)))
        for _ in range(20):
            for gpu in (0, 1):
                _kernel(machine, gpu=gpu, n=100)
        for gpu in (0, 1):
            assert machine.faults.fail_event(gpu).callbacks == []


class TestDegradation:
    def test_degradation_slows_transfer(self):
        clean = _htod(_machine())
        plan = FaultPlan(events=(LinkDegradation(
            at=0.0, resource="pcie4_uplink_pcie_sw0", duration=100.0,
            factor=0.5),))
        faulted = _htod(_machine(plan))
        assert faulted > clean

    def test_factor_restored_exactly_after_window(self):
        plan = FaultPlan(events=(LinkDegradation(
            at=0.0, resource="pcie4_uplink_pcie_sw0", duration=0.05,
            factor=0.3),))
        machine = _machine(plan)
        injector = machine.faults
        machine.env.run()  # drain the fault driver
        resource = injector._resource("pcie4_uplink_pcie_sw0")
        assert resource.fault_factor == 1.0
        (record,) = injector.timeline
        assert record.kind == "degradation"
        assert record.end == 0.05
        spans = [s for s in machine.trace.spans
                 if s.phase == "Fault:degradation"]
        assert len(spans) == 1


class TestEngineStall:
    def test_stall_delays_copy_by_window(self):
        clean = _htod(_machine())
        stall = 0.2
        plan = FaultPlan(events=(CopyEngineStall(
            at=0.0, gpu=0, duration=stall, direction="in"),))
        faulted = _htod(_machine(plan))
        assert faulted >= clean + stall - 1e-9

    def test_invalid_direction_rejected(self):
        with pytest.raises(SimulationError, match="sideways"):
            FaultPlan(events=(CopyEngineStall(
                at=0.0, gpu=0, duration=0.1, direction="sideways"),))


class TestStraggler:
    def test_straggler_slows_kernel(self):
        clean = _kernel(_machine())
        plan = FaultPlan(events=(StragglerGpu(
            at=0.0, gpu=0, duration=100.0, slowdown=2.0),))
        faulted = _kernel(_machine(plan))
        assert faulted > 1.5 * clean

    def test_slowdown_restored_exactly_after_window(self):
        plan = FaultPlan(events=(StragglerGpu(
            at=0.0, gpu=0, duration=0.01, slowdown=3.7),))
        machine = _machine(plan)
        machine.env.run()
        assert machine.device(0).compute_slowdown == 1.0
        memory = machine.spec.topology.node("gpu0").memory
        assert memory.fault_factor == 1.0

    def test_straggler_factor_query(self):
        plan = FaultPlan(events=(StragglerGpu(
            at=0.0, gpu=3, duration=5.0, slowdown=2.5),))
        machine = _machine(plan)
        assert machine.faults.straggler_factor(3) == 2.5
        assert machine.faults.straggler_factor(0) == 1.0


class TestGpuFailMidKernel:
    def test_kernel_running_when_its_gpu_dies_raises(self):
        """A sort of 2^18 keys takes ~9 ms here; GPU 0 dies 0.1 ms in.
        The kernel fails at the death, and its effect never lands."""
        machine = Machine(dgx_a100(), scale=1_000)
        machine.install_faults(FaultPlan(events=(GpuFail(at=1e-4, gpu=0),)))
        keys = np.random.default_rng(0).integers(
            0, 2**31 - 1, size=1 << 18, dtype=np.int32)
        buf = machine.device(0).alloc(len(keys), np.int32, label="keys")
        buf.data[:] = keys
        with pytest.raises(DeviceFaultError):
            machine.run(sort_on_device(machine, span(buf)))
        assert machine.env.now == pytest.approx(1e-4)
        assert np.array_equal(buf.data, keys)


class TestLinkDown:
    def test_down_window_opens_and_restores(self):
        plan = FaultPlan(events=(LinkDown(
            at=0.0, resource="nvswitch_port_gpu2", duration=0.3),))
        machine = _machine(plan)
        injector = machine.faults
        seen = {}

        def probe():
            yield machine.env.timeout(0.1)
            seen["mid"] = dict(injector.down_ids)
            rid = next(iter(injector.down_ids))
            yield injector.restored_event(rid)
            seen["restored_at"] = machine.env.now

        machine.run(probe())
        assert len(seen["mid"]) == 1
        assert seen["restored_at"] == 0.3
        assert not injector.down_ids

    def test_restored_event_for_healthy_resource_fires_immediately(self):
        machine = _machine(FaultPlan.empty())
        event = machine.faults.restored_event(12345)
        assert event.triggered


class TestDowntime:
    def test_downtime_is_union_not_sum(self):
        machine = _machine(FaultPlan.empty())
        injector = machine.faults
        injector.timeline.append(FaultRecord("a", "x", 1.0, 3.0))
        injector.timeline.append(FaultRecord("b", "y", 2.0, 4.0))
        injector.timeline.append(FaultRecord("c", "z", 10.0, None))
        assert injector.downtime_between(0.0, 5.0) == pytest.approx(3.0)
        # The open-ended window extends to the end of the interval.
        assert injector.downtime_between(0.0, 12.0) == pytest.approx(5.0)
        assert injector.downtime_between(4.0, 9.0) == 0.0
