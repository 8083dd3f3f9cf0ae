"""Critical-path attribution: partition invariant and attributions.

The headline guarantee under test: the extracted segments *partition*
the wall-time window — they are contiguous, non-overlapping, and sum to
the wall time within float tolerance — so every rollup percentage is
exact, not impressionistic.  The dominant-phase assertions pin the
known answer for the reference platform (an 8-GPU DGX A100 P2P sort is
gated by the host-to-device staging copies).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.hw import dgx_a100, ibm_ac922
from repro.obs.critpath import (
    CriticalPath,
    InFlight,
    Segment,
    _blocking_chain,
    critical_path,
    fault_windows_of,
    job_critical_path,
    tenant_rollup,
)
from repro.runtime import Machine
from repro.serve import JobSpec, SortService
from repro.sort import p2p_sort


def _p2p_run():
    # Large enough that transfer/kernel time, not fixed latencies,
    # carries the wall time — the regime the paper measures.
    machine = Machine(dgx_a100(), scale=1000)
    recorder = machine.enable_observability()
    data = np.random.default_rng(7).integers(
        0, 1 << 24, size=65536).astype(np.int32)
    result = p2p_sort(machine, data)
    return machine, recorder, result


@pytest.fixture(scope="module")
def p2p_path():
    machine, recorder, result = _p2p_run()
    path = critical_path(machine.trace, recorder,
                         tier_of=machine.spec.topology.tier_of)
    return machine, result, path


class TestPartition:
    def test_segments_partition_wall_time(self, p2p_path):
        _machine, _result, path = p2p_path
        path.validate(rel_tol=1e-6)
        assert path.covered == pytest.approx(path.wall, rel=1e-6)

    def test_segments_are_contiguous_and_ascending(self, p2p_path):
        _machine, _result, path = p2p_path
        cursor = path.start
        for seg in path.segments:
            assert seg.start == pytest.approx(cursor, abs=1e-12)
            assert seg.end > seg.start
            cursor = seg.end
        assert cursor == pytest.approx(path.end, abs=1e-12)

    def test_window_matches_the_run(self, p2p_path):
        machine, result, path = p2p_path
        assert path.wall == pytest.approx(result.duration, rel=1e-6)


class TestAttribution:
    def test_dominant_phase_is_htod_on_dgx_p2p(self, p2p_path):
        """The known answer for the reference platform: staging over
        the PCIe host links gates the P2P sort, not the NVLink
        exchange or the kernels."""
        _machine, _result, path = p2p_path
        assert path.dominant_phase() == "HtoD"

    def test_link_time_dominates_kernel_time(self, p2p_path):
        _machine, _result, path = p2p_path
        by_cat = path.by_category()
        assert by_cat["link"] > by_cat["kernel"]

    def test_link_segments_carry_bottleneck_and_tier(self, p2p_path):
        _machine, _result, path = p2p_path
        links = [s for s in path.segments if s.category == "link"]
        assert links
        for seg in links:
            assert seg.detail, "link segment without a bottleneck link"
            assert seg.tier in ("intra", "inter")

    def test_rollups_each_sum_to_wall(self, p2p_path):
        _machine, _result, path = p2p_path
        for rollup in (path.by_category(), path.by_phase()):
            assert sum(rollup.values()) == pytest.approx(path.wall,
                                                         rel=1e-6)

    def test_to_dict_round_trips_the_rollups(self, p2p_path):
        _machine, _result, path = p2p_path
        blob = path.to_dict()
        assert blob["wall_s"] == pytest.approx(path.wall)
        assert blob["by_phase"] == path.by_phase()
        assert len(blob["segments"]) == len(path.segments)


class TestBlockingChain:
    """The backward walk on synthetic interval sets."""

    def test_empty_items_is_one_wait(self):
        assert _blocking_chain([], 0.0, 2.0) == [(0.0, 2.0, None)]

    def test_single_item_with_side_gaps(self):
        chain = _blocking_chain([(1.0, 2.0, "a")], 0.0, 3.0)
        assert chain == [(0.0, 1.0, None), (1.0, 2.0, "a"),
                         (2.0, 3.0, None)]

    def test_long_pole_wins_over_nested_item(self):
        # b nests inside a; the long pole a blocks the whole window.
        chain = _blocking_chain([(0.0, 4.0, "a"), (1.0, 2.0, "b")],
                                0.0, 4.0)
        assert chain == [(0.0, 4.0, "a")]

    def test_chained_items_hand_off_at_starts(self):
        chain = _blocking_chain([(0.0, 2.0, "a"), (1.0, 4.0, "b")],
                                0.0, 4.0)
        assert chain == [(0.0, 1.0, "a"), (1.0, 4.0, "b")]

    def test_partition_holds_on_random_intervals(self):
        rng = np.random.default_rng(13)
        starts = rng.uniform(0.0, 10.0, size=200)
        durations = rng.uniform(0.01, 3.0, size=200)
        items = [(float(s), float(s + d), i)
                 for i, (s, d) in enumerate(zip(starts, durations))]
        chain = _blocking_chain(items, 0.0, 12.0)
        cursor = 0.0
        for lo, hi, _payload in chain:
            assert lo == pytest.approx(cursor, abs=1e-9)
            assert hi > lo
            cursor = hi
        assert cursor == pytest.approx(12.0, abs=1e-9)


class TestWaitsAndFaults:
    def test_wait_overlapping_fault_window_is_classified(self):
        path = critical_path(
            _trace_with_gap(), None,
            fault_windows=[("gpu_fail", "gpu1", 1.2, 1.8)])
        faults = [s for s in path.segments if s.category == "fault"]
        assert faults and faults[0].detail == "gpu_fail@gpu1"
        assert faults[0].start == pytest.approx(1.2)
        assert faults[0].end == pytest.approx(1.8)
        path.validate(rel_tol=1e-9)

    def test_in_flight_marker_puts_dying_phase_on_the_chain(self):
        path = critical_path(
            _trace_with_gap(), None, end=5.0,
            in_flight=InFlight(phase="Exchange", start=3.0))
        assert path.end == 5.0
        tail = path.segments[-1]
        assert tail.phase == "Exchange"
        assert tail.category == "engine-wait"  # no recorder: no flows
        path.validate(rel_tol=1e-9)

    def test_fault_windows_of_clips_open_windows(self):
        machine, _recorder, _result = _p2p_run()
        assert fault_windows_of(machine) == []


def _trace_with_gap():
    """Two kernel spans with a [1.0, 2.0] gap between them."""
    from repro.sim.engine import Environment
    from repro.sim.trace import Trace

    trace = Trace(Environment())
    trace.record("Sort", "gpu0", 0.0, end=1.0)
    trace.record("Merge", "gpu0", 2.0, end=3.0)
    return trace


class TestJobPaths:
    @pytest.fixture(scope="class")
    def episode(self):
        machine = Machine(ibm_ac922(), scale=1e5)
        recorder = machine.enable_observability()
        jobs = [JobSpec(job_id=i, tenant=("acme", "umbrella")[i % 2],
                        arrival_s=0.0, keys=4096, gpus=2,
                        algorithm="p2p", seed=i + 1)
                for i in range(4)]
        report = SortService(machine).run(jobs)
        return machine, recorder, report

    def test_job_path_wall_is_the_jobs_latency(self, episode):
        machine, recorder, report = episode
        done = [r for r in report.results if r.status == "completed"]
        assert done
        for result in done:
            path = job_critical_path(machine.trace, recorder, result)
            assert path.label == result.spec.label
            assert path.wall == pytest.approx(result.latency_s, rel=1e-6)
            path.validate(rel_tol=1e-6)

    def test_queued_job_leads_with_queue_wait(self, episode):
        machine, recorder, report = episode
        queued = [r for r in report.results
                  if r.status == "completed" and r.queue_wait_s > 1e-9]
        assert queued, "episode produced no queued job"
        path = job_critical_path(machine.trace, recorder, queued[0])
        head = path.segments[0]
        assert head.category == "queue-wait"
        assert head.duration == pytest.approx(queued[0].queue_wait_s,
                                              rel=1e-6)

    def test_never_started_job_raises(self, episode):
        machine, recorder, report = episode
        result = report.results[0]
        fake = type(result)(spec=result.spec, status="rejected")
        with pytest.raises(ServiceError, match="never ran"):
            job_critical_path(machine.trace, recorder, fake)

    def test_tenant_rollup_sums_job_walls(self, episode):
        machine, recorder, report = episode
        paths = [job_critical_path(machine.trace, recorder, r)
                 for r in report.results if r.started_s is not None]
        rollup = tenant_rollup(paths)
        assert set(rollup) <= {"acme", "umbrella"}
        total = sum(entry["total"] for entry in rollup.values())
        assert total == pytest.approx(sum(p.wall for p in paths))
        for entry in rollup.values():
            categories = sum(v for k, v in entry.items() if k != "total")
            assert categories == pytest.approx(entry["total"], rel=1e-6)


class TestValidate:
    def test_validate_rejects_a_gap(self):
        path = CriticalPath(0.0, 2.0, [
            Segment(0.0, 0.5, "kernel", "Sort", "gpu0"),
            Segment(1.5, 2.0, "kernel", "Merge", "gpu0")])
        with pytest.raises(ValueError):
            path.validate()

    def test_validate_rejects_short_coverage(self):
        path = CriticalPath(0.0, 2.0,
                            [Segment(0.0, 1.0, "kernel", "Sort", "gpu0")])
        with pytest.raises(ValueError):
            path.validate()

    def test_empty_chain_over_empty_window_is_fine(self):
        CriticalPath(1.0, 1.0, []).validate()
