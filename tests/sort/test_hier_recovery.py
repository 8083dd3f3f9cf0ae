"""Elastic recovery of the hierarchical sort under cluster faults.

The tentpole contract: a node lost mid-run triggers a node-level
replan (its shard re-sharded over the survivors, splitters recomputed,
merge ranges reassigned) that replays **only the unfinished exchange
waves** — completed matchings are durable in the wave-checkpointed
:class:`~repro.recovery.cluster.ExchangeLedger`.  Recovery is bounded
by ``max_node_replans`` and, under a deadline budget, degrades to a
typed partial result instead of an exception.
"""

import numpy as np
import pytest

from repro.data import generate
from repro.errors import DeadlineExceededError, RecoveryError, SortError
from repro.faults import FaultPlan
from repro.faults.events import GpuFail, LinkFlap, NodeDown, SwitchDown
from repro.faults.policy import ResiliencePolicy
from repro.hw import make_cluster
from repro.obs.postmortem import load_bundle
from repro.runtime import Machine
from repro.sort import HierConfig, hier_sort

KEYS = 60_000
SCALE = 2e9 / KEYS


def _data(seed=42, n=KEYS):
    return generate(n, "uniform", np.int32, seed=seed)


def _machine(nodes=4, fabric="fat-tree", plan=None):
    machine = Machine(make_cluster("dgx-a100", nodes, fabric=fabric),
                      scale=SCALE)
    if plan is not None:
        machine.install_faults(plan)
    return machine


def _clean_run(nodes=4, fabric="fat-tree", seed=42):
    """A fault-free reference run: its phase timings place the faults."""
    result = hier_sort(_machine(nodes, fabric), _data(seed=seed))
    return result


class TestNodeLossRecovery:
    def test_node_down_mid_exchange_recovers_element_identical(self):
        data = _data(seed=5)
        clean = _clean_run(seed=5)
        mid_exchange = clean.duration - 0.5 * (
            clean.phase_durations["Exchange"]
            + clean.phase_durations["NodeMerge"])
        machine = _machine(plan=FaultPlan(events=(
            NodeDown(at=mid_exchange, node=1),)))
        result = hier_sort(machine, data)
        assert np.array_equal(result.output, np.sort(data))
        assert result.excluded_nodes == (1,)
        assert result.replans == 1
        assert result.degraded
        # The pre-death waves were checkpointed; the replan restored
        # their deliveries instead of re-exchanging them.
        assert result.checkpoints > 0
        assert result.checkpoints_restored > 0

    def test_sixteen_node_node_down_plus_switch_down(self):
        """Acceptance scenario: one NodeDown mid-Exchange plus one
        SwitchDown on a 16-node fat-tree; completes element-identical
        replaying only unfinished waves."""
        data = _data(seed=9)
        clean = _clean_run(nodes=16, seed=9)
        mid_exchange = clean.duration - 0.5 * (
            clean.phase_durations["Exchange"]
            + clean.phase_durations["NodeMerge"])
        machine = _machine(nodes=16, plan=FaultPlan(events=(
            NodeDown(at=mid_exchange, node=3),
            SwitchDown(at=0.4 * clean.duration, switch="ft_spine0",
                       duration=0.2 * clean.duration),)))
        result = hier_sort(machine, data)
        assert np.array_equal(result.output, np.sort(data))
        assert result.excluded_nodes == (3,)
        assert result.replans == 1
        assert result.checkpoints_restored > 0
        # Durable deliveries survive the replan: far fewer waves were
        # replayed than the full matching schedule would cost.
        assert result.waves_replayed < result.checkpoints

    def test_replans_exhausted_is_a_typed_recovery_error(self):
        clean = _clean_run()
        machine = _machine(plan=FaultPlan(events=(
            NodeDown(at=0.5 * clean.duration, node=2),)))
        with pytest.raises(RecoveryError, match="0 node replans"):
            hier_sort(machine, _data(),
                      config=HierConfig(max_node_replans=0))

    def test_failure_context_attached_to_the_error(self):
        clean = _clean_run()
        machine = _machine(plan=FaultPlan(events=(
            NodeDown(at=0.5 * clean.duration, node=2),)))
        try:
            hier_sort(machine, _data(),
                      config=HierConfig(max_node_replans=0))
        except SortError as exc:
            assert exc.failing_phase
            assert exc.failing_phase_started is not None
        else:
            pytest.fail("expected a SortError")

    def test_faulted_recovery_replay_is_bit_identical(self):
        clean = _clean_run(seed=17)
        plan = FaultPlan(events=(
            NodeDown(at=0.6 * clean.duration, node=1),), seed=7)
        runs = []
        for _ in range(2):
            machine = _machine(plan=plan)
            result = hier_sort(machine, _data(seed=17))
            runs.append((result.duration, result.excluded_nodes,
                         result.waves_replayed,
                         machine.env.events_retired))
        assert runs[0] == runs[1]


    def test_postmortem_without_a_fault_plan(self, tmp_path):
        # A terminal failure dumps its bundle whether or not a fault
        # plan is installed: here a node shard too large for its GPUs.
        machine = Machine(make_cluster("dgx-a100", 2), scale=1e8)
        with pytest.raises(SortError, match="exceeding") as info:
            hier_sort(machine, _data(), config=HierConfig(
                postmortem_dir=str(tmp_path)))
        assert len(info.value.postmortems) == 1
        assert list(tmp_path.iterdir())
        # Planning the local sort failed: the error and the bundle name
        # that phase.
        assert info.value.failing_phase == "LocalSort"
        bundle = load_bundle(info.value.postmortems[0])
        assert bundle["error"]["phase"] == "LocalSort"


class TestWaveReplay:
    def test_transient_exchange_failure_replays_the_wave(self):
        # A brief leaf outage mid-exchange on a 4-node fat-tree (no
        # redundant spine) aborts in-flight wave transfers; the wave
        # replays after the window and the sort stays element-identical.
        data = _data(seed=23)
        clean = _clean_run(seed=23)
        mid_exchange = clean.duration - 0.5 * (
            clean.phase_durations["Exchange"]
            + clean.phase_durations["NodeMerge"])
        machine = _machine(plan=FaultPlan(events=(
            SwitchDown(at=mid_exchange, switch="ft_leaf0",
                       duration=0.02 * clean.duration),)))
        result = hier_sort(machine, data)
        assert np.array_equal(result.output, np.sort(data))
        assert result.excluded_nodes == ()
        assert result.replans == 0

    def test_flapping_nic_does_not_break_the_sort(self):
        data = _data(seed=29)
        clean = _clean_run(seed=29)
        link = make_cluster("dgx-a100", 4).node_nic_links(1)[0]
        machine = _machine(plan=FaultPlan(events=(
            LinkFlap(at=0.3 * clean.duration, resource=link, cycles=3,
                     down_s=0.03 * clean.duration,
                     up_s=0.05 * clean.duration),)))
        result = hier_sort(machine, data)
        assert np.array_equal(result.output, np.sort(data))


class TestDeadlineBudget:
    def test_deadline_yields_typed_partial_result(self):
        clean = _clean_run()
        machine = _machine(plan=FaultPlan(events=(
            NodeDown(at=0.5 * clean.duration, node=1),)))
        result = hier_sort(machine, _data(), config=HierConfig(
            deadline_s=0.6 * clean.duration))
        assert result.deadline_exceeded
        assert result.output is None
        assert result.degraded

    @pytest.mark.parametrize("plan", [None, FaultPlan()],
                             ids=["no-plan", "empty-plan"])
    def test_deadline_holds_with_or_without_a_fault_plan(self, plan):
        clean = _clean_run()
        result = hier_sort(_machine(plan=plan), _data(), config=HierConfig(
            deadline_s=0.5 * clean.duration))
        assert result.deadline_exceeded
        assert result.output is None
        assert result.duration == pytest.approx(0.5 * clean.duration)
        assert "NodeMerge" not in result.completed_phases

    def test_generous_deadline_changes_nothing(self):
        data = _data(seed=31)
        clean = _clean_run(seed=31)
        result = hier_sort(_machine(), data, config=HierConfig(
            deadline_s=10.0 * clean.duration))
        assert not result.deadline_exceeded
        assert np.array_equal(result.output, np.sort(data))
        assert result.duration == clean.duration


class TestResilienceOverrideScope:
    """Satellite: a per-call policy override never leaks onto the
    machine — success and error paths both restore it."""

    def test_override_restored_after_success(self):
        machine = _machine()
        original = machine.resilience
        custom = ResiliencePolicy(max_retries=9)
        result = hier_sort(machine, _data(), resilience=custom)
        assert result.output is not None
        assert machine.resilience is original

    def test_override_restored_after_failure(self):
        machine = _machine(nodes=2, plan=FaultPlan(events=tuple(
            GpuFail(at=0.0, gpu=g) for g in range(16))))
        original = machine.resilience
        with pytest.raises(SortError):
            hier_sort(machine, _data(),
                      resilience=ResiliencePolicy(max_retries=9))
        assert machine.resilience is original
