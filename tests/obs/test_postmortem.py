"""Post-mortem bundles: dumped on terminal failures, renderable offline.

The contract under test: when a supervised sort dies terminally, the
supervisor freezes a self-contained JSON bundle whose critical path
carries the *failing phase* — even though that phase's spans never
closed — and ``repro.obs postmortem`` can render it with no access to
the original run.  Dumping must never raise into the failing run, and
bundle filenames must be deterministic (same failure, same name).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.data import generate
from repro.errors import RecoveryError, ReproError
from repro.faults import FaultPlan
from repro.faults.events import GpuFail, StragglerGpu
from repro.hw import dgx_a100, ibm_ac922
from repro.obs.postmortem import (
    BUNDLE_VERSION,
    build_bundle,
    load_bundle,
    render_bundle,
    write_bundle,
)
from repro.recovery import SortSupervisor, SupervisorConfig
from repro.runtime import Machine
from repro.serve import JobSpec, ServiceConfig, SortService


def _doomed_run(tmp_path, flight_recorder=False):
    """A supervised sort with no replan budget and a mid-run GPU kill."""
    machine = Machine(dgx_a100(), scale=1000)
    if flight_recorder:
        from repro.obs.recorder import Recorder, RingConfig

        machine.enable_observability(Recorder(ring=RingConfig()))
    else:
        machine.enable_observability()
    machine.install_faults(FaultPlan(events=(GpuFail(at=0.004, gpu=3),)))
    supervisor = SortSupervisor(
        machine, SupervisorConfig(max_replans=0,
                                  postmortem_dir=str(tmp_path)))
    data = generate(65536, "uniform", seed=3)
    with pytest.raises(RecoveryError):
        supervisor.sort(data, algorithm="p2p")
    return machine, supervisor


class TestFailureBundle:
    @pytest.fixture(scope="class")
    def dumped(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("pm")
        machine, supervisor = _doomed_run(tmp_path)
        return tmp_path, machine, supervisor

    def test_supervisor_dumps_exactly_one_bundle(self, dumped):
        tmp_path, _machine, supervisor = dumped
        assert len(supervisor.postmortems) == 1
        assert os.path.exists(supervisor.postmortems[0])

    def test_bundle_is_versioned_and_provenance_stamped(self, dumped):
        _tmp, _machine, supervisor = dumped
        bundle = load_bundle(supervisor.postmortems[0])
        assert bundle["bundle_version"] == BUNDLE_VERSION
        assert bundle["kind"] == "failure"
        assert bundle["error"]["type"] == "RecoveryError"
        assert "provenance" in bundle

    def test_failing_phase_is_on_the_critical_path(self, dumped):
        _tmp, _machine, supervisor = dumped
        bundle = load_bundle(supervisor.postmortems[0])
        failing = bundle["error"]["phase"]
        assert failing  # the supervisor knew what it was running
        path = bundle["critical_path"]
        assert path is not None
        phases = {seg["phase"] for seg in path["segments"]}
        assert failing in phases
        # The partition invariant holds in the serialized form too.
        covered = sum(seg["duration"] for seg in path["segments"])
        assert covered == pytest.approx(path["wall_s"], rel=1e-6)

    def test_fault_timeline_records_the_kill(self, dumped):
        _tmp, machine, supervisor = dumped
        bundle = load_bundle(supervisor.postmortems[0])
        kills = [w for w in bundle["fault_timeline"]
                 if w["kind"] == "gpu_fail"]
        assert kills and kills[0]["start"] == pytest.approx(0.004)

    def test_render_names_the_failing_phase(self, dumped):
        _tmp, _machine, supervisor = dumped
        bundle = load_bundle(supervisor.postmortems[0])
        text = render_bundle(bundle)
        assert "RecoveryError" in text
        assert f"failing phase: {bundle['error']['phase']}" in text
        assert "critical path" in text

    def test_filename_is_deterministic(self, dumped, tmp_path):
        _tmp, _machine, supervisor = dumped
        first = os.path.basename(supervisor.postmortems[0])
        _machine2, supervisor2 = _doomed_run(tmp_path)
        assert os.path.basename(supervisor2.postmortems[0]) == first


class TestFlightRecorderBundle:
    def test_bundle_carries_ring_and_aggregates(self, tmp_path):
        _machine, supervisor = _doomed_run(tmp_path, flight_recorder=True)
        bundle = load_bundle(supervisor.postmortems[0])
        assert bundle["ring"]["enabled"]
        assert bundle["recent_events"]
        assert bundle["link_totals"]
        assert "metrics" in bundle
        text = render_bundle(bundle)
        assert "recent events" in text


class TestQuarantineBundle:
    def test_breaker_trip_dumps_a_quarantine_bundle(self, tmp_path):
        machine = Machine(ibm_ac922(), scale=1e5)
        machine.enable_observability()
        straggler = machine.spec.num_gpus - 1
        machine.install_faults(FaultPlan(events=(
            StragglerGpu(at=0.0, gpu=straggler, duration=1e9,
                         slowdown=2.0),)))
        jobs = [JobSpec(job_id=i, tenant="acme", arrival_s=0.0,
                        keys=4096, gpus=machine.spec.num_gpus,
                        algorithm="p2p", seed=i + 1)
                for i in range(2)]
        service = SortService(
            machine,
            config=ServiceConfig(breaker_threshold=1,
                                 postmortem_dir=str(tmp_path)))
        service.run(jobs)
        assert service.postmortems
        bundle = load_bundle(service.postmortems[0])
        assert bundle["kind"] == "quarantine"
        assert bundle["error"]["type"] == "ServiceError"
        assert str(straggler) in bundle["error"]["message"]
        assert "quarantine" in render_bundle(bundle)


class TestRobustness:
    def test_dump_failure_never_masks_the_sort_error(self, monkeypatch,
                                                     tmp_path):
        import repro.obs.postmortem as pm

        def boom(*args, **kwargs):
            raise RuntimeError("bundle writer exploded")

        monkeypatch.setattr(pm, "build_bundle", boom)
        machine = Machine(dgx_a100(), scale=1000)
        machine.enable_observability()
        machine.install_faults(
            FaultPlan(events=(GpuFail(at=0.004, gpu=3),)))
        supervisor = SortSupervisor(
            machine, SupervisorConfig(max_replans=0,
                                      postmortem_dir=str(tmp_path)))
        data = generate(65536, "uniform", seed=3)
        with pytest.raises(RecoveryError):
            supervisor.sort(data, algorithm="p2p")
        assert supervisor.postmortems == []

    def test_no_dir_means_no_dump(self, tmp_path):
        machine = Machine(dgx_a100(), scale=1000)
        machine.enable_observability()
        machine.install_faults(
            FaultPlan(events=(GpuFail(at=0.004, gpu=3),)))
        supervisor = SortSupervisor(machine,
                                    SupervisorConfig(max_replans=0))
        with pytest.raises(RecoveryError):
            supervisor.sort(generate(65536, "uniform", seed=3),
                            algorithm="p2p")
        assert supervisor.postmortems == []
        assert supervisor.failed_phase is not None

    def test_load_bundle_rejects_garbage(self, tmp_path):
        path = tmp_path / "not-a-bundle.json"
        path.write_text("{]")
        with pytest.raises(ReproError):
            load_bundle(str(path))
        path.write_text(json.dumps({"no": "version"}))
        with pytest.raises(ReproError):
            load_bundle(str(path))
        with pytest.raises(ReproError):
            load_bundle(str(tmp_path / "missing.json"))

    def test_build_bundle_without_observability(self, tmp_path):
        machine = Machine(dgx_a100(), scale=1)
        bundle = build_bundle(machine, ValueError("plain"), phase="Sort")
        assert bundle["critical_path"] is not None
        assert bundle["recent_events"] == []
        assert not bundle["ring"]["enabled"]
        path = write_bundle(bundle, str(tmp_path))
        assert load_bundle(path)["error"]["message"] == "plain"
