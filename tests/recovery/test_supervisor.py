"""End-to-end tests of the self-healing sort supervisor.

Fault times are placed as fractions of a clean supervised run's
duration (measured once per module), so the scenarios keep hitting the
intended phases if calibration shifts.
"""

import numpy as np
import pytest

from repro.errors import DeviceFaultError, SortError
from repro.faults.events import GpuFail, StragglerGpu
from repro.faults.plan import FaultPlan
from repro.hw import dgx_a100
from repro.recovery import SortSupervisor, SupervisorConfig
from repro.recovery.het_run import HetRun
from repro.recovery.tasks import TaskGroup
from repro.runtime import Machine
from repro.sort import P2PConfig, p2p_sort
from repro.sort.result import stage_input
from tests.sort.test_key_value import check_kv

N = 32_000
SCALE = 2.0e9 / N


def _data() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.integers(0, 2**31, N, dtype=np.int64)


def _values() -> np.ndarray:
    """One payload per key: its input position (see ``check_kv``)."""
    return np.arange(N, dtype=np.int64)


def _machine(plan=None, scale: float = SCALE) -> Machine:
    machine = Machine(dgx_a100(), scale=scale)
    if plan is not None:
        machine.install_faults(plan)
    return machine


@pytest.fixture(scope="module")
def clean_p2p():
    return SortSupervisor(_machine()).sort(_data(), algorithm="p2p")


@pytest.fixture(scope="module")
def clean_p2p_kv():
    return SortSupervisor(_machine()).sort(_data(), algorithm="p2p",
                                           values=_values())


@pytest.fixture(scope="module")
def clean_het():
    return SortSupervisor(_machine()).sort(_data(), algorithm="het")


class TestCleanRuns:
    def test_p2p_sorts_and_checkpoints(self, clean_p2p):
        result = clean_p2p
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.algorithm == "supervised-p2p"
        assert not result.degraded
        assert result.replans == 0
        assert result.checkpoints >= 2
        assert result.completed_phases == (
            "Partition", "LocalSort", "Exchange", "Gather")

    def test_het_sorts_and_checkpoints(self, clean_het):
        result = clean_het
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.algorithm == "supervised-het"
        assert not result.degraded
        assert result.checkpoints >= 1
        assert result.completed_phases == ("Pipeline", "Merge")

    def test_empty_fault_plan_is_identical_to_no_plan(self, clean_p2p):
        faulted = SortSupervisor(_machine(FaultPlan.empty())).sort(
            _data(), algorithm="p2p")
        assert faulted.duration == clean_p2p.duration
        assert np.array_equal(faulted.output, clean_p2p.output)

    def test_local_sorts_use_the_p2p_config_primitive(self):
        # The supervised local sorts run the primitive the P2P config
        # names, as the plain sort does (not a supervisor-wide one).
        config = P2PConfig(primitive="stehle")
        plain = p2p_sort(_machine(), _data(), config=config)
        supervised = SortSupervisor(_machine()).sort(
            _data(), algorithm="p2p", p2p_config=config)
        assert supervised.phase_durations["Sort"] == pytest.approx(
            plain.phase_durations["Sort"], rel=1e-12)
        assert np.array_equal(supervised.output, plain.output)

    def test_a_run_that_installs_nothing_is_the_plain_p2p_sort(self):
        config = SupervisorConfig(checkpoint_sorted_chunks=False,
                                  checkpoint_merged_chunks=False,
                                  speculation=False)
        bare = SortSupervisor(_machine(), config).sort(_data(),
                                                       algorithm="p2p")
        plain = p2p_sort(_machine(), _data())
        for result in (bare, plain):
            assert result.algorithm == "p2p"
            assert result.checkpoints == 0
            assert result.completed_phases == (
                "Partition", "LocalSort", "Exchange", "Gather")
        assert bare.duration == plain.duration
        assert bare.phase_durations == plain.phase_durations
        assert np.array_equal(bare.output, plain.output)

    def test_supervised_run_is_deterministic(self, clean_p2p):
        again = SortSupervisor(_machine()).sort(_data(), algorithm="p2p")
        assert again.duration == clean_p2p.duration
        assert np.array_equal(again.output, clean_p2p.output)


class TestReplanning:
    def test_gpu_killed_mid_exchange_replans_and_sorts(self, clean_p2p):
        """The acceptance scenario: one GPU dies mid-exchange; the run
        completes on the survivors, element-identical, with a recorded
        replan."""
        at = 0.7 * clean_p2p.duration  # exchange phase
        plan = FaultPlan(events=(GpuFail(at=at, gpu=5),))
        result = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="p2p")
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.degraded
        assert result.replans >= 1
        assert 5 in result.excluded_gpus
        assert 5 not in result.gpu_ids
        assert len(result.gpu_ids) == 4  # pow2 prefix of 7 survivors

    def test_replan_restores_from_sorted_checkpoint(self, clean_p2p):
        at = 0.55 * clean_p2p.duration  # after the LocalSort checkpoint
        plan = FaultPlan(events=(GpuFail(at=at, gpu=5),))
        result = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="p2p")
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.replans == 1
        assert result.checkpoints_restored >= 1

    def test_replan_restores_payloads_from_sorted_checkpoint(
            self, clean_p2p_kv):
        at = 0.55 * clean_p2p_kv.duration  # after the LocalSort checkpoint
        plan = FaultPlan(events=(GpuFail(at=at, gpu=5),))
        result = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="p2p", values=_values())
        assert result.replans == 1
        assert result.checkpoints_restored >= 1
        check_kv(_data(), result)

    def test_replan_without_checkpoints_restarts_from_source(self,
                                                             clean_p2p):
        at = 0.7 * clean_p2p.duration
        plan = FaultPlan(events=(GpuFail(at=at, gpu=5),))
        config = SupervisorConfig(checkpoint_sorted_chunks=False,
                                  checkpoint_merged_chunks=False)
        result = SortSupervisor(_machine(plan), config).sort(
            _data(), algorithm="p2p")
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.checkpoints_restored == 0

    def test_het_gpu_killed_mid_pipeline_replans(self, clean_het):
        at = 0.4 * clean_het.duration
        plan = FaultPlan(events=(GpuFail(at=at, gpu=2),))
        result = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="het")
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.replans >= 1
        assert 2 not in result.gpu_ids

    def test_het_flushes_only_chunks_whose_dtoh_completed(self):
        # Out of core, one chunk per GPU per batch.  GPU 2 dies halfway
        # through its second DtoH: the first batch is on the host, the
        # second batch's chains died in flight and stay unflushed.
        scale = 512e9 / N
        clean = Machine(dgx_a100(), scale=scale)
        SortSupervisor(clean).sort(_data(), algorithm="het")
        second = [span for span in clean.trace.spans
                  if span.phase == "DtoH" and span.actor == "gpu2"][1]
        machine = Machine(dgx_a100(), scale=scale)
        machine.install_faults(FaultPlan(events=(GpuFail(
            at=(second.start + second.end) / 2, gpu=2),)))
        host_in, _ = stage_input(machine, _data())
        driver = HetRun(SortSupervisor(machine), host_in, tuple(range(8)))
        group = TaskGroup(machine.env, name="Pipeline")
        try:
            with pytest.raises(DeviceFaultError):
                machine.env.run(until=machine.env.process(
                    group.supervise(driver.body("Pipeline")(group))))
            assert driver.flushed == set(range(8))
            for task in driver.tasks[:8]:
                assert np.array_equal(task.run, np.sort(
                    _data()[task.src_start:task.src_stop]))
        finally:
            driver.cleanup()

    @pytest.mark.parametrize("payloads", [False, True],
                             ids=["keys", "key-value"])
    def test_survivors_too_small_fall_back_to_a_cpu_merge(self, payloads):
        # 15 GB chunks fit two to a 40 GB A100 on eight GPUs.  GPU 5
        # dies after the LocalSort checkpoint; the four survivors would
        # need 30 GB chunks, so the staged runs merge on the CPU.
        # Payloads double the record, so they run at half the keys.
        physical = 8192
        scale = (15e9 if payloads else 30e9) / physical
        keys = np.random.default_rng(3).integers(
            0, 2**31 - 1, physical).astype(np.int32)
        values = np.arange(physical, dtype=np.int32) if payloads else None
        clean = SortSupervisor(_machine(scale=scale)).sort(
            keys, algorithm="p2p", values=values)
        plan = FaultPlan(events=(GpuFail(at=0.5 * clean.duration, gpu=5),))
        machine = _machine(plan, scale=scale)
        result = SortSupervisor(machine).sort(keys, algorithm="p2p",
                                              values=values)
        assert np.array_equal(result.output, np.sort(keys))
        assert result.checkpoints_restored == 1
        assert any(span.phase == "Merge" and span.actor.startswith("cpu")
                   for span in machine.trace.spans)
        if payloads:
            check_kv(keys, result)
        else:
            assert result.output_values is None

    def test_early_kill_replans_from_scratch(self, clean_p2p):
        at = 0.1 * clean_p2p.duration  # partition phase
        plan = FaultPlan(events=(GpuFail(at=at, gpu=3),))
        result = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="p2p")
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.replans >= 1


@pytest.mark.usefixtures("copy_oracle")
class TestSpeculation:
    def test_mid_run_straggler_loses_to_a_backup(self, clean_p2p):
        plan = FaultPlan(events=(StragglerGpu(
            at=0.15 * clean_p2p.duration, gpu=3, duration=100.0,
            slowdown=30.0),))
        result = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="p2p")
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.speculations == 1
        assert result.speculative_wins == 1
        assert result.degraded

    def test_backup_carries_the_stragglers_payloads(self, clean_p2p_kv):
        plan = FaultPlan(events=(StragglerGpu(
            at=0.15 * clean_p2p_kv.duration, gpu=3, duration=100.0,
            slowdown=30.0),))
        result = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="p2p", values=_values())
        assert result.speculative_wins == 1
        check_kv(_data(), result)

    def test_disabling_speculation_waits_out_the_straggler(self,
                                                           clean_p2p):
        plan = FaultPlan(events=(StragglerGpu(
            at=0.15 * clean_p2p.duration, gpu=3, duration=100.0,
            slowdown=30.0),))
        with_spec = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="p2p")
        without = SortSupervisor(
            _machine(plan), SupervisorConfig(speculation=False)).sort(
            _data(), algorithm="p2p")
        assert without.speculations == 0
        assert np.array_equal(without.output, np.sort(_data()))
        assert without.duration > with_spec.duration


class TestDeadline:
    def test_deadline_mid_run_returns_typed_partial(self, clean_p2p):
        deadline = 0.5 * clean_p2p.duration
        result = SortSupervisor(
            _machine(), SupervisorConfig(deadline_s=deadline)).sort(
            _data(), algorithm="p2p")
        assert result.deadline_exceeded
        assert result.output is None
        assert result.duration == pytest.approx(deadline)
        assert "Partition" in result.completed_phases
        assert "Gather" not in result.completed_phases

    def test_generous_deadline_completes_normally(self, clean_p2p):
        result = SortSupervisor(
            _machine(),
            SupervisorConfig(deadline_s=10 * clean_p2p.duration)).sort(
            _data(), algorithm="p2p")
        assert not result.deadline_exceeded
        assert np.array_equal(result.output, np.sort(_data()))


class TestErrors:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SortError, match="rp"):
            SortSupervisor(_machine()).sort(_data(), algorithm="rp")

    def test_empty_input_rejected(self):
        with pytest.raises(SortError, match="empty"):
            SortSupervisor(_machine()).sort(
                np.array([], dtype=np.int64), algorithm="p2p")

    def test_het_rejects_payloads(self):
        with pytest.raises(SortError, match="keys only"):
            SortSupervisor(_machine()).sort(
                _data(), algorithm="het", values=_values())

    def test_duplicate_gpu_ids_rejected(self):
        with pytest.raises(SortError, match="duplicate"):
            SortSupervisor(_machine()).sort(
                _data(), algorithm="p2p", gpu_ids=(0, 0, 1, 2))
