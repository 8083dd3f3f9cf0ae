"""Per-job trace extraction from service episodes."""

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.hw import ibm_ac922
from repro.obs.jobs import job_labels, job_trace
from repro.runtime import Machine
from repro.serve import JobSpec, ServiceConfig, SortService


def _episode():
    machine = Machine(ibm_ac922(), scale=1e5)
    machine.enable_observability()
    jobs = [JobSpec(job_id=i, tenant="acme", arrival_s=0.0,
                    keys=4096, gpus=2, algorithm="p2p", seed=i + 1)
            for i in range(4)]
    report = SortService(machine).run(jobs)
    return machine, report


@pytest.fixture(scope="module")
def episode():
    return _episode()


class TestJobTrace:
    def test_labels_list_every_job(self, episode):
        machine, report = episode
        assert sorted(job_labels(machine.trace)) \
            == [f"acme/{i}" for i in range(4)]

    def test_filter_keeps_only_the_jobs_spans(self, episode):
        machine, report = episode
        result = next(r for r in report.results
                      if r.spec.label == "acme/0")
        trace, root = job_trace(machine.trace, "acme/0", result.gpu_ids)
        assert root.phase == "SupervisedSort"
        assert root.actor == "job:acme/0"
        assert trace.spans
        allowed = {f"gpu{gpu}" for gpu in result.gpu_ids} | {"job:acme/0"}
        for span in trace.spans:
            assert span.actor in allowed or span.actor.startswith("cpu")
            assert span.start >= root.start - 1e-9
            assert span.end <= root.end + 1e-9

    def test_jobs_partition_their_device_spans(self, episode):
        """Concurrent jobs on disjoint gangs never claim each other's
        device spans."""
        machine, report = episode
        seen = {}
        for result in report.results:
            label = result.spec.label
            trace, _ = job_trace(machine.trace, label, result.gpu_ids)
            for span in trace.spans:
                if span.actor.startswith("gpu"):
                    key = (span.actor, span.start, span.end, span.phase)
                    assert key not in seen, \
                        f"{key} claimed by {seen.get(key)} and {label}"
                    seen[key] = label
        assert seen

    def test_phase_rollup_of_one_job_is_self_consistent(self, episode):
        machine, report = episode
        result = next(r for r in report.results
                      if r.spec.label == "acme/1")
        trace, root = job_trace(machine.trace, "acme/1", result.gpu_ids)
        durations = trace.phase_durations()
        assert durations["SupervisedSort"] \
            == pytest.approx(root.duration)
        for phase, duration in durations.items():
            assert duration <= root.duration + 1e-9

    def test_unknown_label_raises_with_known_jobs(self, episode):
        machine, report = episode
        with pytest.raises(ServiceError, match="acme/0"):
            job_trace(machine.trace, "acme/99", (0, 1))


class TestReplanMidPhase:
    """A job that loses a GPU mid-phase still extracts cleanly."""

    def _run(self, fail_at=None):
        from repro.faults import FaultPlan
        from repro.faults.events import GpuFail

        machine = Machine(ibm_ac922(), scale=1e5)
        machine.enable_observability()
        if fail_at is not None:
            machine.install_faults(FaultPlan(events=(
                GpuFail(at=fail_at, gpu=0),)))
        jobs = [JobSpec(job_id=0, tenant="acme", arrival_s=0.0,
                        keys=16384, gpus=machine.spec.num_gpus,
                        algorithm="p2p", seed=5)]
        report = SortService(machine).run(jobs)
        return machine, report.results[0]

    @pytest.fixture(scope="class")
    def replanned(self):
        # Probe the clean run's window, then kill a gang GPU midway.
        _machine, clean = self._run()
        midpoint = (clean.started_s + clean.finished_s) / 2.0
        machine, result = self._run(fail_at=midpoint)
        assert result.status == "completed"
        assert result.sort.replans >= 1, "fault missed the job"
        return machine, result

    def test_replan_marker_is_attributed_to_the_job(self, replanned):
        machine, result = replanned
        trace, _root = job_trace(machine.trace, "acme/0",
                                 result.gpu_ids)
        replans = [s for s in trace.spans if s.phase == "Replan"]
        assert replans
        assert all(s.actor == "job:acme/0" for s in replans)

    def test_dead_gpus_pre_failure_spans_are_kept(self, replanned):
        machine, result = replanned
        trace, root = job_trace(machine.trace, "acme/0",
                                result.gpu_ids)
        dead = [s for s in trace.spans if s.actor == "gpu0"]
        assert dead, "spans from before the failure were dropped"
        assert all(s.end <= root.end + 1e-9 for s in dead)

    def test_extraction_still_brackets_every_span(self, replanned):
        machine, result = replanned
        trace, root = job_trace(machine.trace, "acme/0",
                                result.gpu_ids)
        phases = {s.phase for s in trace.spans}
        assert "SupervisedSort" in phases
        for span in trace.spans:
            assert span.start >= root.start - 1e-9
            assert span.end <= root.end + 1e-9
