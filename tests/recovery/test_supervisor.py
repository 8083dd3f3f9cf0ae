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
from repro.sort import HetConfig, P2PConfig, het_sort, p2p_sort
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
        # Out of core, every GPU's 2n lane streams chunk after chunk.
        # GPU 2 dies halfway through its second DtoH: its first chunk is
        # on the host, the dying chain's chunk stays unflushed, and
        # every run that did flush is its input slice, sorted.
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
        plan = driver.plan
        group = TaskGroup(machine.env, name="Pipeline")
        try:
            with pytest.raises(DeviceFaultError):
                machine.env.run(until=machine.env.process(
                    group.supervise(driver.body("Pipeline")(group))))
            gpu2_chunks = plan.tasks[2::8]
            assert gpu2_chunks[0].index in plan.flushed
            assert gpu2_chunks[1].index not in plan.flushed
            assert len(plan.flushed) >= 8
            for task in plan.tasks:
                if task.index in plan.flushed:
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


#: Every HET pipeline the supervised HET sort runs.
HET_CONFIGS = {
    "2n": HetConfig(),
    "3n": HetConfig(approach="3n"),
    "eager": HetConfig(eager_merge=True),
    "gpu-merged": HetConfig(gpu_merge_groups=True),
}
#: Out of core: 8 chunk groups of keys, 15 of key-value records.
HET_SCALE = 128e9 / N


def _het_sort(machine, approach, payloads, supervised=True):
    values = _values() if payloads else None
    if not supervised:
        return het_sort(machine, _data(), config=HET_CONFIGS[approach],
                        values=values)
    return SortSupervisor(machine).sort(
        _data(), algorithm="het", values=values,
        het_config=HET_CONFIGS[approach])


def _check_het_output(result, payloads):
    assert np.array_equal(result.output, np.sort(_data()))
    if payloads:
        check_kv(_data(), result)
    else:
        assert result.output_values is None


def _machine_is_clean(machine):
    assert all(device.allocated_logical == 0.0
               for device in machine.devices)
    assert machine.net.active_flows == []
    assert machine.in_flight == {}


@pytest.mark.parametrize("payloads", [False, True],
                         ids=["keys", "key-value"])
@pytest.mark.parametrize("approach", sorted(HET_CONFIGS))
class TestHetPipelines:
    """The supervised HET sort runs the plain sort's lanes: 2n, 3n,
    eager merging and GPU-merged groups, keys or records."""

    def test_clean_run_is_the_plain_pipeline(self, approach, payloads):
        machine = _machine(scale=HET_SCALE)
        result = _het_sort(machine, approach, payloads)
        _check_het_output(result, payloads)
        plain = _het_sort(_machine(scale=HET_SCALE), approach, payloads,
                          supervised=False)
        assert result.duration == plain.duration
        assert result.phase_durations == plain.phase_durations
        # One runs checkpoint per chunk group.
        assert result.checkpoints == result.chunk_groups > 1
        assert result.completed_phases == ("Pipeline", "Merge")
        _machine_is_clean(machine)

    def test_gpu_lost_mid_pipeline_replans(self, approach, payloads):
        # Halfway through the GPUs' work (eager merges outlast it).
        clean = _machine(scale=HET_SCALE)
        _het_sort(clean, approach, payloads)
        at = 0.5 * max(span.end for span in clean.trace.spans
                       if span.phase == "DtoH")
        plan = FaultPlan(events=(GpuFail(at=at, gpu=5),))
        machine = _machine(plan, scale=HET_SCALE)
        result = _het_sort(machine, approach, payloads)
        _check_het_output(result, payloads)
        assert result.replans == 1
        assert 5 not in result.gpu_ids
        # GPU-merged groups keep a power-of-two GPU set.
        assert len(result.gpu_ids) == (4 if approach == "gpu-merged"
                                       else 7)
        _machine_is_clean(machine)


def test_het_gpu_merged_one_run_plan_falls_back_to_chunk_runs():
    # In core, the one GPU-merged group stages straight into the output.
    # GPU 5 dies mid-run: the group never flushed, so its chunks re-sort
    # on the surviving four GPUs into runs of their own, which the final
    # CPU merge combines.
    clean_machine = _machine()
    clean = _het_sort(clean_machine, "gpu-merged", True)
    assert clean.chunk_groups == 1
    assert not any(span.phase == "Merge" and span.actor.startswith("cpu")
                   for span in clean_machine.trace.spans)
    plan = FaultPlan(events=(GpuFail(at=0.5 * clean.duration, gpu=5),))
    machine = _machine(plan)
    result = _het_sort(machine, "gpu-merged", True)
    _check_het_output(result, True)
    assert result.replans == 1
    assert result.gpu_ids == (0, 1, 2, 3)
    assert any(span.phase == "Merge" and span.actor.startswith("cpu")
               for span in machine.trace.spans)
    _machine_is_clean(machine)


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

    def test_deadline_during_an_eager_merge_leaves_no_flows(self):
        # Eager merges run on the CPU beside the GPU lanes; a deadline
        # in the first one cancels it along with the lanes.
        clean = _machine(scale=HET_SCALE)
        _het_sort(clean, "eager", False)
        first = min((span for span in clean.trace.spans
                     if span.phase == "Merge"), key=lambda span: span.start)
        machine = _machine(scale=HET_SCALE)
        result = SortSupervisor(machine, SupervisorConfig(
            deadline_s=(first.start + first.end) / 2)).sort(
            _data(), algorithm="het", het_config=HET_CONFIGS["eager"])
        assert result.deadline_exceeded
        _machine_is_clean(machine)

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

    def test_het_gpu_merge_needs_a_power_of_two_gpu_set(self):
        with pytest.raises(SortError, match="power-of-two"):
            SortSupervisor(_machine()).sort(
                _data(), algorithm="het", gpu_ids=(0, 1, 2),
                het_config=HetConfig(gpu_merge_groups=True))

    def test_duplicate_gpu_ids_rejected(self):
        with pytest.raises(SortError, match="duplicate"):
            SortSupervisor(_machine()).sort(
                _data(), algorithm="p2p", gpu_ids=(0, 0, 1, 2))
