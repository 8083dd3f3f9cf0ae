"""End-to-end tests of the sort service: episodes under load, faults,
drain and shutdown.

Each episode runs a hand-written job list on a functional IBM AC922
(4 GPUs), so every scheduling claim is checked against actual sorted
output, not just counters.
"""

import json

import numpy as np
import pytest

from repro.data import generate
from repro.errors import ServiceError
from repro.faults.events import GpuFail, StragglerGpu
from repro.faults.plan import FaultPlan
from repro.hw import ibm_ac922
from repro.recovery.supervisor import SupervisorConfig
from repro.runtime import Machine
from repro.serve import (
    JobSpec,
    ServiceConfig,
    SortService,
    Tenant,
    WorkloadSpec,
    generate_jobs,
)

SCALE = 1e5


def _machine(plan=None) -> Machine:
    machine = Machine(ibm_ac922(), scale=SCALE)
    if plan is not None:
        machine.install_faults(plan)
    return machine


def _spec(job_id, **overrides) -> JobSpec:
    base = dict(job_id=job_id, tenant=("acme", "globex")[job_id % 2],
                arrival_s=0.02 * job_id, keys=4096, gpus=2,
                algorithm="p2p", seed=job_id + 1)
    base.update(overrides)
    return JobSpec(**base)


def _expected(spec: JobSpec) -> np.ndarray:
    return np.sort(generate(spec.keys, "uniform", np.dtype(spec.dtype),
                            seed=spec.seed))


class TestEpisodes:
    def test_jobs_complete_with_sorted_output(self):
        jobs = [_spec(i) for i in range(6)]
        report = SortService(_machine()).run(jobs)
        assert report.completed == 6
        assert report.offered == 6
        for result in report.results:
            assert result.status == "completed"
            assert np.array_equal(result.sort.output,
                                  _expected(result.spec))
            assert result.latency_s > 0
            assert len(result.gpu_ids) == result.spec.gpus

    def test_disjoint_gangs_run_concurrently(self):
        # Two 2-GPU jobs submitted together overlap in time.
        jobs = [_spec(0, arrival_s=0.0), _spec(1, arrival_s=0.0)]
        report = SortService(_machine()).run(jobs)
        first, second = sorted(report.results,
                               key=lambda r: r.spec.job_id)
        assert set(first.gpu_ids).isdisjoint(second.gpu_ids)
        assert second.started_s < first.finished_s

    def test_report_is_deterministic(self):
        jobs = [_spec(i) for i in range(5)]
        a = SortService(_machine()).run(list(jobs))
        b = SortService(_machine()).run(list(jobs))
        assert json.dumps(a.to_json(), sort_keys=True) \
            == json.dumps(b.to_json(), sort_keys=True)

    def test_observability_does_not_change_the_episode(self):
        jobs = [_spec(i) for i in range(5)]
        plain = SortService(_machine()).run(list(jobs))
        machine = _machine()
        machine.enable_observability()
        observed = SortService(machine).run(list(jobs))
        assert json.dumps(plain.to_json(), sort_keys=True) \
            == json.dumps(observed.to_json(), sort_keys=True)

    def test_one_episode_per_instance(self):
        service = SortService(_machine())
        service.run([_spec(0)])
        with pytest.raises(ServiceError):
            service.run([_spec(1)])

    def test_empty_workload_rejected(self):
        with pytest.raises(ServiceError):
            SortService(_machine()).run([])

    def test_generated_workload_runs_end_to_end(self):
        workload = WorkloadSpec(jobs=10, arrival_rate=20.0,
                                base_keys=4096, deadline_slack=None,
                                seed=11)
        report = SortService(_machine()).run(generate_jobs(workload))
        assert report.offered == 10
        assert report.completed + report.rejected \
            + report.by_status.get("failed", 0) == 10


class TestOverload:
    def test_overload_sheds_typed_and_bounds_the_queue(self):
        jobs = [_spec(i, arrival_s=0.0) for i in range(12)]
        service = SortService(
            _machine(), config=ServiceConfig(queue_capacity=4))
        report = service.run(jobs)
        assert report.rejected > 0
        assert set(report.rejections) == {"queue-full"}
        assert report.peak_queue <= 4
        assert report.completed == 12 - report.rejected
        # Admitted jobs still sort correctly under pressure.
        for result in report.results:
            if result.status == "completed":
                assert np.array_equal(result.sort.output,
                                      _expected(result.spec))

    def test_quota_rejections_are_per_tenant(self):
        jobs = [_spec(0, tenant="capped"), _spec(1, tenant="acme")]
        service = SortService(
            _machine(), tenants=[Tenant("capped", quota_bytes=64)])
        report = service.run(jobs)
        by_id = {r.spec.job_id: r for r in report.results}
        assert by_id[0].status == "rejected"
        assert by_id[0].reason == "quota-exceeded"
        assert by_id[1].status == "completed"
        assert report.tenants["capped"]["rejected"] \
            == {"quota-exceeded": 1}

    def test_expired_in_queue_is_shed_typed(self):
        # A large exclusive job holds all four GPUs well past the
        # second job's deadline; the stale job must be shed at
        # dispatch, not run.
        hog = _spec(0, arrival_s=0.0, keys=32768, gpus=4)
        stale = _spec(1, arrival_s=0.0, keys=512, gpus=4,
                      deadline_s=0.1)
        report = SortService(_machine()).run([hog, stale])
        by_id = {r.spec.job_id: r for r in report.results}
        assert by_id[0].status == "completed"
        assert by_id[1].status == "deadline"
        assert by_id[1].reason == "expired-in-queue"
        assert by_id[1].gpu_ids == ()

    def test_deadline_budget_exhaustion_is_typed(self):
        # An optimistic rate model admits the job; the supervisor's
        # deadline budget then expires mid-run.
        job = _spec(0, gpus=4, deadline_s=0.001)
        service = SortService(_machine(), config=ServiceConfig(
            gpu_rate_keys_per_s=1e15))
        report = service.run([job])
        result = report.results[0]
        assert result.status == "deadline"
        assert result.reason == "deadline-budget"
        assert result.sort is not None
        assert result.sort.deadline_exceeded

    def test_impossible_gang_fails_typed(self):
        jobs = [_spec(0, gpus=8), _spec(1, gpus=2)]
        report = SortService(_machine()).run(jobs)
        by_id = {r.spec.job_id: r for r in report.results}
        assert by_id[0].status == "failed"
        assert by_id[0].reason == "unschedulable"
        assert by_id[1].status == "completed"


class TestFaults:
    def test_straggler_trips_the_breaker_and_is_avoided(self):
        plan = FaultPlan(events=(
            StragglerGpu(at=0.0, gpu=3, duration=1e9, slowdown=2.0),))
        jobs = [_spec(i, arrival_s=0.0, gpus=1, algorithm="het",
                      keys=2048) for i in range(20)]
        service = SortService(
            _machine(plan), config=ServiceConfig(queue_capacity=20))
        report = service.run(jobs)
        assert report.completed == 20
        assert report.quarantined == (3,)
        trips = service.breaker.trips
        assert trips and trips[0][0] == 3
        used_after_trip = [
            r for r in report.results
            if r.started_s is not None and r.started_s > trips[0][1]
            and 3 in r.gpu_ids]
        assert used_after_trip == []
        charged = [r for r in report.results
                   if 3 in r.gpu_ids and r.started_s is not None
                   and r.started_s <= trips[0][1]]
        assert len(charged) == service.breaker.threshold

    def test_killed_gpu_replans_then_quarantines(self):
        clean = SortService(_machine()).run(
            [_spec(0, arrival_s=0.0, gpus=4)])
        duration = clean.results[0].latency_s
        plan = FaultPlan(events=(
            GpuFail(at=0.5 * duration, gpu=3),))
        jobs = [_spec(0, arrival_s=0.0, gpus=4),
                _spec(1, arrival_s=2.0 * duration, gpus=2)]
        report = SortService(_machine(plan)).run(jobs)
        by_id = {r.spec.job_id: r for r in report.results}
        assert by_id[0].status == "completed"
        assert by_id[0].sort.replans >= 1
        assert np.array_equal(by_id[0].sort.output,
                              _expected(by_id[0].spec))
        assert report.quarantined == (3,)
        assert by_id[1].status == "completed"
        assert 3 not in by_id[1].gpu_ids


class TestDrainAndShutdown:
    def test_drain_rejects_new_work_and_finishes_the_rest(self):
        jobs = [_spec(i, arrival_s=0.0) for i in range(2)] \
            + [_spec(9, arrival_s=100.0)]
        service = SortService(_machine(), config=ServiceConfig(
            drain_at_s=0.01))
        report = service.run(jobs)
        by_id = {r.spec.job_id: r for r in report.results}
        assert by_id[0].status == "completed"
        assert by_id[1].status == "completed"
        assert by_id[9].status == "rejected"
        assert by_id[9].reason == "draining"

    def test_shutdown_cancels_typed_without_hanging(self):
        jobs = [_spec(i, arrival_s=0.0, keys=16384) for i in range(6)]
        service = SortService(_machine(), config=ServiceConfig(
            queue_capacity=6, drain_at_s=0.0005,
            shutdown_grace_s=0.0005))
        report = service.run(jobs)
        assert report.offered == 6
        cancelled = [r for r in report.results
                     if r.status == "cancelled"]
        assert cancelled
        for result in cancelled:
            assert result.reason == "shutdown"
        assert {r.status for r in report.results} \
            <= {"cancelled", "completed"}
        # The machine unwound cleanly: nothing still running or queued.
        assert service._running == {}
        assert len(service.queue) == 0

    @pytest.mark.parametrize("algorithm", ["p2p", "het"])
    def test_shutdown_without_speculation_frees_the_machine(self, algorithm):
        # Without speculation or a deadline only the shutdown can stop
        # a job's phase; its tasks must still be drained before the
        # job's buffers are freed.
        jobs = [_spec(i, arrival_s=0.0, keys=16384, algorithm=algorithm)
                for i in range(6)]
        machine = _machine()
        service = SortService(machine, config=ServiceConfig(
            queue_capacity=6, drain_at_s=0.0005, shutdown_grace_s=0.0005,
            supervisor=SupervisorConfig(speculation=False)))
        report = service.run(jobs)
        assert [r for r in report.results if r.status == "cancelled"]
        # Let anything the shutdown left suspended run out.
        machine.env.run()
        assert all(device.allocated_logical == 0.0
                   for device in machine.devices)
        assert machine.net.active_flows == []
        assert machine.in_flight == {}


class TestReportShape:
    def test_to_json_is_serializable_and_complete(self):
        jobs = [_spec(i) for i in range(4)]
        report = SortService(_machine()).run(jobs)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["offered"] == 4
        assert payload["by_status"] == {"completed": 4}
        assert payload["rejections"] == {}
        assert payload["p99_latency_s"] >= payload["p50_latency_s"] > 0
        assert payload["jobs_per_s"] > 0
        assert len(payload["jobs"]) == 4
        for row in payload["jobs"]:
            assert row["status"] == "completed"
            assert row["latency_s"] >= row["queue_wait_s"] >= 0
        assert set(payload["tenants"]) == {"acme", "globex"}
