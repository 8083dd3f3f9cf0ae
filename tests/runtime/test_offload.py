"""Offloaded kernels: same bytes, same instants, no job left behind.

Kernels given temp storage compute their functional effect on a worker
thread (:mod:`repro.runtime.offload`).  These tests pin that path to
the inline one, whatever the CPU count: ``THREADS`` is set by
monkeypatch, so the worker path runs on a one-CPU host too.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import het_sort, p2p_sort
from repro.errors import DeviceFaultError, RuntimeApiError
from repro.faults import FaultPlan
from repro.faults.events import GpuFail
from repro.hw import dgx_a100
from repro.runtime import Machine, offload
from repro.runtime.kernels import merge_two_on_device, sort_on_device
from repro.runtime.memcpy import before_write, copy_async, span
from repro.sort import HetConfig, swap
from repro.sim.engine import Interrupt

N = offload.MIN_KEYS


@pytest.fixture
def submitted(monkeypatch):
    """Count the jobs that reach the executor."""
    jobs = []
    real = offload._executor

    class Counting:
        def submit(self, work):
            jobs.append(work)
            return real().submit(work)

    monkeypatch.setattr(offload, "_executor", Counting)
    return jobs


def _sorted_run(monkeypatch, threads: int, algorithm: str,
                with_values: bool):
    monkeypatch.setattr(offload, "THREADS", threads)
    merges = []
    real = swap.merge_two_on_device

    def counting(machine, target, split, **kwargs):
        merges.append(0 < split < len(target))
        return real(machine, target, split, **kwargs)

    monkeypatch.setattr(swap, "merge_two_on_device", counting)
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 1 << 20, size=4 * N, dtype=np.int32)
    values = (rng.integers(0, 1 << 40, size=keys.size, dtype=np.int64)
              if with_values else None)
    machine = Machine(dgx_a100(), scale=1000)
    if algorithm == "p2p":
        result = p2p_sort(machine, keys, gpu_ids=[0, 1, 2, 3],
                          values=values)
    else:
        result = het_sort(machine, keys, gpu_ids=[0, 1, 2, 3],
                          config=HetConfig(gpu_merge_groups=True),
                          values=values)
    return result, machine.trace.spans, machine, sum(merges)


@pytest.mark.parametrize("with_values", [False, True],
                         ids=["keys", "records"])
@pytest.mark.parametrize("algorithm", ["p2p", "het-gpu-merged"])
def test_one_and_two_threads_give_identical_sorts(monkeypatch, submitted,
                                                  algorithm, with_values):
    inline, inline_spans, _, _ = _sorted_run(monkeypatch, 1, algorithm,
                                             with_values)
    assert submitted == []
    offloaded, spans, machine, merges = _sorted_run(monkeypatch, 2,
                                                    algorithm, with_values)
    # Every swap merge that merges anything offloads, each of MIN_KEYS
    # keys; so do P2P's four local sorts, but not HET's.
    assert merges > 0
    assert len(submitted) == merges + (4 if algorithm == "p2p" else 0)
    assert machine.in_flight == {}
    assert np.array_equal(offloaded.output, inline.output)
    if with_values:
        assert np.array_equal(offloaded.output_values, inline.output_values)
    assert offloaded.duration == inline.duration
    assert offloaded.phase_durations == inline.phase_durations
    assert offloaded.pivots == inline.pivots
    assert spans == inline_spans


def _kernel_with_write(monkeypatch, threads: int, into: str):
    """Sort a buffer while a device-local copy lands in it mid-kernel;
    ``into`` picks the copy's target: the input or the scratch."""
    monkeypatch.setattr(offload, "THREADS", threads)
    machine = Machine(dgx_a100(), scale=1000)
    device = machine.device(0)
    rng = np.random.default_rng(3)
    target = device.alloc(N, np.int32)
    target.data[:] = rng.integers(0, 1000, size=N)
    scratch = device.alloc(N, np.int32)
    patch = device.alloc(N // 2, np.int32)
    patch.data[:] = -1
    env = machine.env

    def writer():
        landing = target if into == "input" else scratch
        yield from copy_async(machine, span(landing, 0, N // 2),
                              span(patch))

    def run():
        kernel = env.process(sort_on_device(machine, span(target),
                                            scratch=span(scratch)))
        yield env.process(writer())
        landed = env.now
        yield kernel
        # The copy landed while the kernel ran.
        assert 0 < landed < env.now
        return env.now

    end = machine.run(run())
    assert machine.in_flight == {}
    return target.data.copy(), end


@pytest.mark.parametrize("into", ["input", "scratch"])
def test_write_into_pending_kernel_gives_inline_result(monkeypatch,
                                                       submitted, into):
    inline, inline_end = _kernel_with_write(monkeypatch, 1, into)
    offloaded, end = _kernel_with_write(monkeypatch, 2, into)
    assert len(submitted) == 1
    assert np.array_equal(offloaded, inline)
    assert end == inline_end
    assert np.array_equal(offloaded, np.sort(offloaded))
    if into == "input":
        # The kernel sorted the bytes present at its completion.
        assert np.count_nonzero(offloaded == -1) == N // 2


def _kernel_with_read(monkeypatch, threads: int):
    """Sort a buffer whose scratch a device-local copy, issued before
    the kernel's launch, still reads; return the bytes the copy lands."""
    monkeypatch.setattr(offload, "THREADS", threads)
    machine = Machine(dgx_a100(), scale=1000)
    device = machine.device(0)
    target = device.alloc(N, np.int32)
    target.data[:] = np.arange(N, dtype=np.int32)[::-1]
    scratch = device.alloc(N, np.int32)
    scratch.data[:] = np.random.default_rng(4).integers(0, 1000, size=N)
    landing = device.alloc(N, np.int32)
    env = machine.env

    def run():
        copy = env.process(copy_async(machine, span(landing),
                                      span(scratch)))
        yield env.timeout(1e-9)
        yield env.process(sort_on_device(machine, span(target),
                                         scratch=span(scratch)))
        yield copy

    machine.run(run())
    assert machine.in_flight == {}
    assert np.array_equal(target.data, np.arange(N))
    return landing.data.copy()


def test_copy_reading_scratch_lands_pre_launch_bytes(monkeypatch,
                                                     submitted):
    inline = _kernel_with_read(monkeypatch, 1)
    offloaded = _kernel_with_read(monkeypatch, 2)
    assert len(submitted) == 1
    assert np.array_equal(offloaded, inline)


def _two_jobs(monkeypatch, drop_second: bool):
    """Launch a job that holds the one worker until a second job runs
    (or half a second passes), then the second job, and close both;
    return the threads the second job's work ran on."""
    pool = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(offload, "_pool", pool)
    machine = Machine(dgx_a100(), scale=1000)
    arrays = [np.zeros(4, np.int32) for _ in range(4)]
    started, released = threading.Event(), threading.Event()
    ran_on = []

    def blocking():
        started.set()
        released.wait(0.5)

    def second():
        ran_on.append(threading.current_thread())
        released.set()

    try:
        first = offload.launch(machine, arrays[:1], arrays[1:2], blocking)
        assert started.wait(5)
        queued = offload.launch(machine, arrays[2:3], arrays[3:], second)
        if drop_second:
            before_write(machine, arrays[2])
        first.close()
        queued.close()
    finally:
        released.set()
        pool.shutdown()
    assert first.ready
    assert queued.ready != drop_second
    assert machine.in_flight == {}
    return ran_on


def test_waiting_main_thread_runs_queued_jobs(monkeypatch):
    # Only the main thread, waiting on the first job, can run the second.
    assert _two_jobs(monkeypatch, False) == [threading.main_thread()]


def test_waiting_main_thread_skips_dropped_jobs(monkeypatch):
    # A write into the second job's input dropped it: nobody runs it.
    assert _two_jobs(monkeypatch, True) == []


def test_cancelled_kernel_leaves_no_job(monkeypatch, submitted):
    monkeypatch.setattr(offload, "THREADS", 2)
    machine = Machine(dgx_a100(), scale=1000)
    device = machine.device(0)
    target = device.alloc(N, np.int32)
    target.data[:] = np.arange(N, dtype=np.int32)[::-1]
    before = target.data.copy()
    scratch = device.alloc(N, np.int32)
    env = machine.env
    outcome = []

    def victim():
        try:
            yield from merge_two_on_device(machine, span(target), N // 2,
                                           scratch=span(scratch))
        except Interrupt:
            outcome.append("interrupted")

    def run():
        proc = env.process(victim())
        yield env.timeout(1e-9)
        assert machine.in_flight
        proc.interrupt()
        yield proc

    machine.run(run())
    assert outcome == ["interrupted"]
    assert len(submitted) == 1
    assert machine.in_flight == {}
    assert np.array_equal(target.data, before)


def test_kernel_on_dying_gpu_leaves_no_job(monkeypatch, submitted):
    monkeypatch.setattr(offload, "THREADS", 2)
    machine = Machine(dgx_a100(), scale=1000)
    machine.install_faults(FaultPlan(events=(GpuFail(at=1e-4, gpu=0),)))
    device = machine.device(0)
    target = device.alloc(N, np.int32)
    target.data[:] = np.arange(N, dtype=np.int32)[::-1]
    scratch = device.alloc(N, np.int32)
    try:
        machine.run(sort_on_device(machine, span(target),
                                   scratch=span(scratch)))
    except DeviceFaultError:
        pass
    # The kernel ended when its GPU died, 1e-4 s into a 9 ms sort.
    assert machine.env.now == pytest.approx(1e-4)
    assert len(submitted) == 1
    assert machine.in_flight == {}


@pytest.mark.parametrize("kernel", ["sort", "merge"])
def test_kernels_below_the_floor_stay_inline(monkeypatch, submitted, kernel):
    monkeypatch.setattr(offload, "THREADS", 2)
    machine = Machine(dgx_a100(), scale=1000)
    device = machine.device(0)
    for n in (N - 1, N):
        target = device.alloc(n, np.int32)
        target.data[:n // 2] = np.arange(n // 2)
        target.data[n // 2:] = np.arange(n - n // 2)
        scratch = device.alloc(n, np.int32)
        if kernel == "sort":
            op = sort_on_device(machine, span(target), scratch=span(scratch))
        else:
            op = merge_two_on_device(machine, span(target), n // 2,
                                     scratch=span(scratch))
        machine.run(op)
        assert np.array_equal(target.data, np.sort(target.data))
    # Only the kernel at the floor reached the executor.
    assert len(submitted) == 1


def test_kernels_without_scratch_stay_inline(monkeypatch, submitted):
    monkeypatch.setattr(offload, "THREADS", 2)
    machine = Machine(dgx_a100(), scale=1000)
    device = machine.device(0)
    keys = device.alloc(N, np.int32)
    values = device.alloc(N, np.int32)
    scratch = device.alloc(N, np.int32)
    keys.data[:] = np.arange(N)[::-1]
    machine.run(sort_on_device(machine, span(keys)))
    # Records need scratch for their payloads too.
    machine.run(sort_on_device(machine, span(keys), values=span(values),
                               scratch=span(scratch)))
    assert submitted == []


def _partial_sort(monkeypatch, threads: int):
    monkeypatch.setattr(offload, "THREADS", threads)
    machine = Machine(dgx_a100(), scale=1000)
    device = machine.device(0)
    keys = device.alloc(N + 10, np.float32)
    keys.data[:] = np.random.default_rng(5).normal(size=N + 10)
    values = device.alloc(N + 10, np.int64)
    values.data[:] = np.arange(N + 10)
    scratch = device.alloc(N + 20, np.float32)
    value_scratch = device.alloc(N, np.int64)
    machine.run(sort_on_device(
        machine, span(keys, 5, N + 5), values=span(values, 5, N + 5),
        scratch=span(scratch, 20), value_scratch=span(value_scratch)))
    return keys.data.copy(), values.data.copy()


def test_partial_spans_land_by_copy(monkeypatch, submitted):
    inline = _partial_sort(monkeypatch, 1)
    offloaded = _partial_sort(monkeypatch, 2)
    assert len(submitted) == 1
    for a, b in zip(inline, offloaded):
        assert a.tobytes() == b.tobytes()


def test_scratch_must_match_its_records_in_a_buffer_of_its_own(dgx):
    device = dgx.device(0)
    keys = device.alloc(100, np.int32)
    wide = device.alloc(100, np.int64)
    short = device.alloc(40, np.int32)
    remote = dgx.device(1).alloc(50, np.int32)
    for scratch in (span(wide, 0, 50), span(keys, 25, 75), span(keys, 0, 50),
                    span(short), span(remote)):
        with pytest.raises(RuntimeApiError):
            dgx.run(sort_on_device(dgx, span(keys, 50), scratch=scratch))
