"""Unit tests of the copy engine: kinds, timing, payload movement."""

import numpy as np
import pytest

from repro.errors import RuntimeApiError
from repro.hw import dgx_a100, ibm_ac922
from repro.runtime import Machine, memcpy
from repro.runtime.cpu_ops import cpu_multiway_merge
from repro.runtime.kernels import merge_two_on_device, sort_on_device
from repro.runtime.memcpy import copy_all, copy_async, span
from repro.sim.engine import Interrupt
from repro.units import gb
from tests.runtime.copy_oracle import install


def run_copy(machine, dst, src, phase=None):
    machine.run(copy_async(machine, dst, src, phase=phase))


class TestFunctionalEffect:
    def test_htod_moves_payload(self, ac922, rng):
        data = rng.integers(0, 100, size=64, dtype=np.int32)
        host = ac922.host_buffer(data.copy())
        dev = ac922.device(0).alloc(64, np.int32)
        run_copy(ac922, span(dev), span(host))
        assert np.array_equal(dev.data, data)

    def test_partial_spans(self, ac922):
        host = ac922.host_buffer(np.arange(10, dtype=np.int32))
        dev = ac922.device(0).alloc(10, np.int32)
        dev.data[:] = -1
        run_copy(ac922, span(dev, 5, 8), span(host, 0, 3))
        assert list(dev.data[5:8]) == [0, 1, 2]
        assert dev.data[0] == -1

    def test_size_mismatch_rejected(self, ac922):
        host = ac922.host_buffer(np.zeros(4, np.int32))
        dev = ac922.device(0).alloc(8, np.int32)
        with pytest.raises(RuntimeApiError, match="size mismatch"):
            run_copy(ac922, span(dev), span(host))

    def test_dtype_mismatch_rejected(self, ac922):
        host = ac922.host_buffer(np.zeros(4, np.int64))
        dev = ac922.device(0).alloc(4, np.int32)
        with pytest.raises(RuntimeApiError, match="dtype mismatch"):
            run_copy(ac922, span(dev), span(host))

    def test_zero_length_copy_is_free(self, ac922):
        host = ac922.host_buffer(np.zeros(4, np.int32))
        dev = ac922.device(0).alloc(4, np.int32)
        run_copy(ac922, span(dev, 0, 0), span(host, 0, 0))
        assert ac922.now == 0.0

    def test_snapshot_at_issue_time(self, ac922):
        # An in-place transfer swap (3n pipeline) must read the data as
        # of the copy's start, not its end.
        src = ac922.host_buffer(np.full(1000, 7, np.int32))
        staging = ac922.device(0).alloc(1000, np.int32)
        staging.data[:] = 42
        out = ac922.host_buffer(np.zeros(1000, np.int32))

        def scenario():
            outbound = ac922.env.process(
                copy_async(ac922, span(out), span(staging)))
            inbound = ac922.env.process(
                copy_async(ac922, span(staging), span(src)))
            yield outbound & inbound

        ac922.run(scenario())
        assert np.all(out.data == 42)       # old contents drained out
        assert np.all(staging.data == 7)    # new contents arrived


def landing_times(machine, *copies):
    """Process: run ``copies`` concurrently; returns each one's end time."""
    ends = [None] * len(copies)

    def timed(index, process):
        yield from process
        ends[index] = machine.now

    yield machine.env.all_of([machine.env.process(timed(i, copy))
                              for i, copy in enumerate(copies)])
    return ends


class TestCopyOnConflict:
    """A copy reads its source on landing; conflicting writes snapshot it.

    Copies are issued as ``memcpy.copy_async``, through the module, so
    that the copy oracle's wrapper is the one called where it is
    installed.
    """

    @pytest.fixture
    def machine(self):
        # 4 GB logical per 1000 int32 keys: copies last tens of ms.
        return Machine(ibm_ac922(), scale=1e6)

    def test_swap_with_the_inbound_copy_issued_first(self, machine,
                                                     copy_oracle):
        src = machine.host_buffer(np.full(1000, 7, np.int32))
        staging = machine.device(0).alloc(1000, np.int32)
        staging.data[:] = 42
        # A pageable destination slows the outbound copy, so the inbound
        # one lands first and overwrites the outbound's source.
        out = machine.host_buffer(np.zeros(1000, np.int32), pinned=False)
        inbound = memcpy.copy_async(machine, span(staging), span(src))
        outbound = memcpy.copy_async(machine, span(out), span(staging))
        landed_in, landed_out = machine.run(
            landing_times(machine, inbound, outbound))
        assert landed_in < landed_out
        assert np.all(out.data == 42)
        assert np.all(staging.data == 7)

    @pytest.mark.parametrize("kernel", ["sort", "merge"])
    def test_kernel_writing_a_range_a_dtoh_still_reads(self, machine, rng,
                                                        kernel,
                                                        copy_oracle):
        keys = rng.integers(0, 1000, size=1000, dtype=np.int32)
        device = machine.device(0).alloc(1000, np.int32)
        device.data[:] = keys
        out = machine.host_buffer(np.zeros(1000, np.int32))
        target = span(device, 100, 120)
        if kernel == "sort":
            launch = sort_on_device(machine, target)
            expected = np.sort(keys[100:120])
        else:
            device.data[100:110].sort()
            device.data[110:120].sort()
            keys = device.data.copy()
            launch = merge_two_on_device(machine, target, split=10)
            expected = np.sort(keys[100:120])
        dtoh = memcpy.copy_async(machine, span(out), span(device))
        kernel_done, copy_done = machine.run(
            landing_times(machine, launch, dtoh))
        assert kernel_done < copy_done
        assert np.array_equal(out.data, keys)
        assert np.array_equal(device.data[100:120], expected)

    def test_cpu_merge_over_an_in_flight_source(self, machine, copy_oracle):
        host = machine.host_buffer(np.arange(1000, dtype=np.int32)[::-1]
                                   .copy())
        issued = host.data.copy()
        device = machine.device(0).alloc(1000, np.int32)
        runs = [np.array([1, 5, 9], np.int32), np.array([2, 3], np.int32)]
        htod = memcpy.copy_async(machine, span(device), span(host))
        merge = cpu_multiway_merge(machine, host.data[10:15], runs)
        copy_done, merge_done = machine.run(
            landing_times(machine, htod, merge))
        assert merge_done < copy_done
        assert np.array_equal(device.data, issued)
        assert host.data[10:15].tolist() == [1, 2, 3, 5, 9]

    def test_source_freed_while_its_copy_is_in_flight(self, machine,
                                                      copy_oracle):
        device = machine.device(0).alloc(1000, np.int32)
        device.data[:] = 5
        out = machine.host_buffer(np.zeros(1000, np.int32))

        def scenario():
            copy = machine.env.process(
                memcpy.copy_async(machine, span(out), span(device)))
            yield machine.env.timeout(1e-6)
            device.free()
            yield copy

        machine.run(scenario())
        assert np.all(out.data == 5)
        assert machine.device(0).allocated_logical == 0.0

    def test_a_failed_copy_leaves_no_registered_source(self, machine):
        host = machine.host_buffer(np.ones(1000, np.int32))
        device = machine.device(0).alloc(1000, np.int32)

        def scenario():
            copy = machine.env.process(
                memcpy.copy_async(machine, span(device), span(host)))
            yield machine.env.timeout(1e-6)
            copy.interrupt("cancelled")
            with pytest.raises(Interrupt):
                yield copy

        machine.run(scenario())
        assert machine.in_flight == {}

    def test_oracle_catches_an_untracked_write(self, machine, monkeypatch):
        # A plain NumPy write bypasses copy-on-conflict; the oracle sees
        # the copy land other bytes than it was issued with.
        oracle = install(monkeypatch)
        host = machine.host_buffer(np.ones(1000, np.int32))
        device = machine.device(0).alloc(1000, np.int32)

        def scenario():
            copy = machine.env.process(
                memcpy.copy_async(machine, span(device), span(host)))
            yield machine.env.timeout(1e-6)
            host.data[:] = 2
            yield copy

        machine.run(scenario())
        assert oracle.checked == 1
        assert len(oracle.mismatches) == 1


class TestTimingModel:
    def test_htod_rate_matches_link(self):
        machine = Machine(ibm_ac922(), scale=1000)
        host = machine.host_buffer(np.zeros(1_000_000, np.int32))
        dev = machine.device(0).alloc(1_000_000, np.int32)
        run_copy(machine, span(dev), span(host))
        # 4 GB logical over 72 GB/s NVLink 2.0.
        assert machine.now == pytest.approx(4e9 / gb(72.0), rel=1e-2)

    def test_pageable_buffer_pays_penalty(self):
        machine = Machine(ibm_ac922(), scale=1000)
        pinned = machine.host_buffer(np.zeros(1_000_000, np.int32))
        dev = machine.device(0).alloc(1_000_000, np.int32)
        run_copy(machine, span(dev), span(pinned))
        pinned_time = machine.now

        machine2 = Machine(ibm_ac922(), scale=1000)
        pageable = machine2.host_buffer(np.zeros(1_000_000, np.int32),
                                        pinned=False)
        dev2 = machine2.device(0).alloc(1_000_000, np.int32)
        run_copy(machine2, span(dev2), span(pageable))
        assert machine2.now == pytest.approx(2 * pinned_time, rel=0.05)

    def test_host_staged_p2p_is_capped(self):
        machine = Machine(ibm_ac922(), scale=1000)
        a = machine.device(0).alloc(1_000_000, np.int32)
        b = machine.device(2).alloc(1_000_000, np.int32)
        run_copy(machine, span(b), span(a))
        # 0.8 x 41 GB/s = 32.8 GB/s (Figure 5a: ~32).
        assert 4e9 / machine.now / 1e9 == pytest.approx(32.8, rel=0.02)

    def test_local_dtod_uses_device_rate(self):
        machine = Machine(ibm_ac922(), scale=1000)
        dev = machine.device(0)
        a = dev.alloc(1_000_000, np.int32)
        b = dev.alloc(1_000_000, np.int32)
        run_copy(machine, span(b), span(a))
        assert 4e9 / machine.now / 1e9 == pytest.approx(360.0, rel=0.02)

    def test_host_to_host_crosses_cpu_interconnect(self):
        machine = Machine(ibm_ac922(), scale=1000)
        src = machine.host_buffer(np.zeros(1_000_000, np.int32), numa=0)
        dst = machine.host_buffer(np.zeros(1_000_000, np.int32), numa=1)
        run_copy(machine, span(dst), span(src))
        assert 4e9 / machine.now / 1e9 == pytest.approx(41.0, rel=0.02)

    def test_phase_recorded_in_trace(self):
        machine = Machine(ibm_ac922(), scale=1000)
        host = machine.host_buffer(np.zeros(1000, np.int32))
        dev = machine.device(0).alloc(1000, np.int32)
        run_copy(machine, span(dev), span(host), phase="HtoD")
        assert machine.trace.phases() == ["HtoD"]
        assert machine.trace.spans[0].actor == "gpu0"


class TestCopyEngines:
    def test_same_direction_copies_serialize_per_gpu(self):
        # Two HtoD copies to ONE GPU share its single inbound engine, so
        # they serialize rather than halving the link fairly.
        machine = Machine(ibm_ac922(), scale=1000)
        host = machine.host_buffer(np.zeros(1_000_000, np.int32))
        d1 = machine.device(0).alloc(1_000_000, np.int32)
        d2 = machine.device(0).alloc(1_000_000, np.int32)

        def scenario():
            yield machine.env.all_of([
                machine.env.process(copy_async(machine, span(d1), span(host))),
                machine.env.process(copy_async(machine, span(d2), span(host))),
            ])

        machine.run(scenario())
        assert machine.now == pytest.approx(2 * 4e9 / gb(72.0), rel=0.02)

    def test_opposite_directions_overlap(self):
        machine = Machine(ibm_ac922(), scale=1000)
        host_in = machine.host_buffer(np.zeros(1_000_000, np.int32))
        host_out = machine.host_buffer(np.zeros(1_000_000, np.int32))
        d = machine.device(0).alloc(1_000_000, np.int32)
        d2 = machine.device(0).alloc(1_000_000, np.int32)

        def scenario():
            yield machine.env.all_of([
                machine.env.process(copy_async(machine, span(d), span(host_in))),
                machine.env.process(copy_async(machine, span(host_out), span(d2))),
            ])

        machine.run(scenario())
        # Bidirectional: the slower leg is DtoH, bound by the host
        # memory write capacity under duplex (109 x 0.544 GB/s), a bit
        # tighter than the NVLink's own duplex rate.
        assert machine.now == pytest.approx(4e9 / (gb(109.0) * 0.544),
                                            rel=0.02)
        # Still far faster than two serialized unidirectional copies.
        assert machine.now < 1.6 * (4e9 / gb(72.0))


class TestCopyAll:
    def test_copy_all_runs_concurrently(self):
        machine = Machine(dgx_a100(), scale=1000)
        pairs = []
        for gpu_id in (0, 2):
            host = machine.host_buffer(np.zeros(1_000_000, np.int32))
            dev = machine.device(gpu_id).alloc(1_000_000, np.int32)
            pairs.append((span(dev), span(host)))
        machine.run(copy_all(machine, pairs, phase="HtoD"))
        # Separate PCIe switches: both copies at full 24.5 GB/s.
        assert machine.now == pytest.approx(4e9 / gb(24.5), rel=0.02)

    def test_copy_all_empty(self, ac922):
        ac922.run(copy_all(ac922, []))
        assert ac922.now == 0.0


class TestSpan:
    def test_span_bounds_checked(self, ac922):
        buffer = ac922.host_buffer(np.zeros(10, np.int32))
        with pytest.raises(RuntimeApiError):
            span(buffer, 5, 20)
        with pytest.raises(RuntimeApiError):
            span(buffer, -1, 5)

    def test_span_defaults_to_whole_buffer(self, ac922):
        buffer = ac922.host_buffer(np.zeros(10, np.int32))
        assert len(span(buffer)) == 10
        assert span(buffer).nbytes == 40
