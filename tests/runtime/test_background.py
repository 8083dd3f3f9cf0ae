"""Tests of background workloads and the co-running experiment."""

import numpy as np
import pytest

from repro.bench.experiments.co_running import sort_under_load
from repro.errors import RuntimeApiError
from repro.hw import dgx_a100, ibm_ac922
from repro.runtime import Machine
from repro.runtime.background import start_copy_stream, start_memory_scan
from repro.runtime.memcpy import copy_async, span
from repro.sort import het_sort
from repro.units import gb


class TestMemoryScan:
    def test_scan_slows_concurrent_copies(self):
        def copy_time(scan: bool) -> float:
            machine = Machine(ibm_ac922(), scale=1000)
            if scan:
                start_memory_scan(machine, gb(100.0))
            host = machine.host_buffer(np.zeros(1_000_000, np.int32))
            dev = machine.device(0).alloc(1_000_000, np.int32)
            machine.run(copy_async(machine, span(dev), span(host)))
            return machine.now

        assert copy_time(scan=True) > 1.2 * copy_time(scan=False)

    def test_scan_does_not_break_correctness(self, rng):
        machine = Machine(ibm_ac922(), scale=1)
        start_memory_scan(machine, gb(60.0))
        keys = rng.integers(0, 1000, size=2000).astype(np.int32)
        result = het_sort(machine, keys, gpu_ids=(0, 1))
        assert np.array_equal(result.output, np.sort(keys))

    def test_invalid_bandwidth(self, ac922):
        with pytest.raises(RuntimeApiError):
            start_memory_scan(ac922, 0.0)


class TestCopyStream:
    def test_bounded_stream_completes(self, ac922, rng):
        start_copy_stream(ac922, gpu_id=0, chunk_elements=100, count=3)
        keys = rng.integers(0, 100, size=500).astype(np.int32)
        result = het_sort(ac922, keys, gpu_ids=(2, 3))
        assert np.array_equal(result.output, np.sort(keys))

    def test_direction_validation(self, ac922):
        with pytest.raises(RuntimeApiError):
            start_copy_stream(ac922, 0, direction="sideways")

    def test_stream_contends_on_shared_switch(self):
        # A stream on GPU 7 shares pcie_sw3 with GPU 6 on the DGX.
        def copy_time(stream: bool) -> float:
            machine = Machine(dgx_a100(), scale=1000)
            if stream:
                start_copy_stream(machine, gpu_id=7)
            host = machine.host_buffer(np.zeros(1_000_000, np.int32))
            dev = machine.device(6).alloc(1_000_000, np.int32)
            machine.run(copy_async(machine, span(dev), span(host)))
            return machine.now

        assert copy_time(stream=True) > 1.5 * copy_time(stream=False)


class TestCoRunningExperiment:
    def test_exclusive_matches_plain_run(self):
        exclusive = sort_under_load("dgx-a100", "p2p", 4, "exclusive")
        from repro.bench.experiments.sort_scaling import sort_duration
        assert exclusive == pytest.approx(
            sort_duration("dgx-a100", "p2p", 4, 2.0), rel=1e-6)

    def test_neighbours_always_slow_the_sort(self):
        for algorithm in ("p2p", "het"):
            clean = sort_under_load("dgx-a100", algorithm, 4, "exclusive")
            scan = sort_under_load("dgx-a100", algorithm, 4,
                                   "memory scan (40 GB/s)")
            stream = sort_under_load("dgx-a100", algorithm, 4,
                                     "copy stream (1 GPU)")
            assert scan > clean
            assert stream > clean
