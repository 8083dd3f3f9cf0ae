"""Unit tests of device memory accounting and buffers."""

import numpy as np
import pytest

from repro.errors import AllocationError, RuntimeApiError
from repro.hw import ibm_ac922
from repro.runtime import Machine


class TestAllocator:
    def test_alloc_tracks_logical_bytes(self, ac922):
        device = ac922.device(0)
        buffer = device.alloc(1000, np.int32)
        assert device.allocated_logical == 4000
        buffer.free()
        assert device.allocated_logical == 0

    def test_scale_multiplies_accounting(self):
        machine = Machine(ibm_ac922(), scale=1e6)
        device = machine.device(0)
        device.alloc(1000, np.int32)
        assert device.allocated_logical == pytest.approx(4e9)

    def test_interleaved_allocs_and_frees_end_at_exactly_zero(self):
        # A float running sum of logical bytes drifts at a non-integer
        # scale: freeing a large buffer before small ones loses their
        # low bits.  A device with no live buffers must read zero.
        machine = Machine(ibm_ac922(), scale=1000 / 7)
        device = machine.device(0)
        small = [device.alloc(size, np.int8) for size in (1, 3)]
        large = device.alloc(1_000_000, np.int8)
        more = device.alloc(5, np.int8)
        for buffer in [large] + small + [more]:
            buffer.free()
        assert device.allocated_logical == 0
        assert device.free_logical == device.capacity_logical

    def test_over_allocation_raises(self):
        machine = Machine(ibm_ac922(), scale=1e9)
        device = machine.device(0)
        with pytest.raises(AllocationError, match="exceeds free capacity"):
            device.alloc(10_000_000, np.int32)  # 40 PB logical

    def test_double_free_rejected(self, ac922):
        buffer = ac922.device(0).alloc(10, np.int32)
        buffer.free()
        with pytest.raises(AllocationError):
            buffer.free()

    def test_max_elements_respects_scale(self):
        machine = Machine(ibm_ac922(), scale=1000)
        device = machine.device(0)
        elements = device.max_elements(np.int32)
        assert elements * 4 * 1000 <= device.capacity_logical

    def test_alloc_timed_charges_malloc_time(self):
        machine = Machine(ibm_ac922(), scale=1e3)
        device = machine.device(0)

        def run():
            # 2M int32 physical = 8 GB logical -> 150 ms (Section 5.1).
            yield from device.alloc_timed(2_000_000, np.int32)

        machine.run(run())
        assert machine.now == pytest.approx(0.15, rel=1e-2)

    def test_reset_clears_everything(self, ac922):
        device = ac922.device(0)
        device.alloc(10, np.int32)
        device.reset()
        assert device.allocated_logical == 0

    def test_unknown_gpu_rejected(self, ac922):
        with pytest.raises(RuntimeApiError):
            ac922.device(4)


class TestDeviceBuffer:
    def test_views(self, ac922):
        buffer = ac922.device(0).alloc(10, np.int32)
        buffer.data[:] = np.arange(10)
        assert list(buffer.view(2, 5)) == [2, 3, 4]
        with pytest.raises(RuntimeApiError):
            buffer.view(5, 20)

    def test_valid_prefix(self, ac922):
        buffer = ac922.device(0).alloc(10, np.int32)
        buffer.valid = 4
        assert buffer.valid_view().size == 4

    def test_one_dimensional_only(self, ac922):
        from repro.runtime.buffer import DeviceBuffer
        with pytest.raises(RuntimeApiError):
            DeviceBuffer(ac922.device(0), np.zeros((2, 2)))


class TestHostBuffer:
    def test_wrap_array(self, ac922):
        buffer = ac922.host_buffer(np.arange(5, dtype=np.int64))
        assert buffer.nbytes == 40
        assert buffer.pinned
        assert buffer.numa == 0

    def test_alloc_by_count_needs_dtype(self, ac922):
        with pytest.raises(RuntimeApiError):
            ac922.host_buffer(100)
        buffer = ac922.host_buffer(100, dtype=np.float32)
        assert len(buffer) == 100

    def test_invalid_numa_rejected(self, ac922):
        with pytest.raises(RuntimeApiError):
            ac922.host_buffer(np.zeros(4), numa=7)

    def test_repr(self, ac922):
        assert "pinned" in repr(ac922.host_buffer(np.zeros(4, np.int32)))


class TestMachine:
    def test_scale_validation(self):
        with pytest.raises(RuntimeApiError):
            Machine(ibm_ac922(), scale=0.5)

    def test_logical_bytes(self):
        machine = Machine(ibm_ac922(), scale=100)
        assert machine.logical_bytes(8) == 800

    def test_repr(self, ac922):
        assert "ibm-ac922" in repr(ac922)


class TestUseAfterFree:
    def test_data_access_after_free_raises(self, ac922):
        from repro.errors import RuntimeApiError
        import pytest as _pytest

        buffer = ac922.device(0).alloc(16, np.int32, label="victim")
        buffer.free()
        with _pytest.raises(RuntimeApiError, match="use after free"):
            _ = buffer.data
        with _pytest.raises(RuntimeApiError, match="use after free"):
            buffer.view(0, 4)

    def test_copy_from_freed_buffer_raises(self, ac922):
        from repro.errors import RuntimeApiError
        from repro.runtime.memcpy import copy_async, span
        import pytest as _pytest

        src = ac922.device(0).alloc(16, np.int32)
        dst = ac922.host_buffer(np.zeros(16, np.int32))
        spn = span(src)
        src.free()
        with _pytest.raises(RuntimeApiError, match="use after free"):
            ac922.run(copy_async(ac922, span(dst), spn))

    def test_metadata_still_readable_after_free(self, ac922):
        buffer = ac922.device(0).alloc(16, np.int32)
        buffer.free()
        assert buffer.capacity == 16
        assert buffer.nbytes == 64
        assert "DeviceBuffer" in repr(buffer)
