"""Chaos scenarios: degraded-mode sorting end to end.

Two guarantees are pinned here:

* **Zero-cost guard** — a machine with an *empty* fault plan installed
  reproduces the committed goldens bit-exactly: every fault branch is
  gated, so merely enabling the subsystem changes nothing.
* **Seeded chaos** — under a straggler, a guaranteed transient kill and
  a P2P-link-down window, both sorts still produce sorted output, flag
  themselves degraded with nonzero recovery counters, and replay
  bit-identically from the same plan.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import generate
from repro.faults import FaultPlan
from repro.faults.events import LinkDown, StragglerGpu, TransientTransfer
from repro.hw import dgx_a100
from repro.runtime import Machine
from repro.sort import het_sort, p2p_sort
from repro.sort.het import HetConfig
from tests.sim.capture_golden import CASES

GOLDEN_PATH = Path(__file__).parent.parent / "sim" / "golden_determinism.json"

PHYSICAL = 100_000
BILLIONS = 2.0


def _machine(physical: int = PHYSICAL,
             billions: float = BILLIONS) -> Machine:
    scale = billions * 1e9 / physical
    return Machine(dgx_a100(), scale=scale)


def _data(physical: int = PHYSICAL) -> np.ndarray:
    return generate(physical, "uniform", np.int32, seed=42)


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", ["p2p-dgx-2b", "het-dgx-2b"])
def test_empty_fault_plan_keeps_runs_bit_identical(case, golden):
    algorithm, physical, billions = CASES[case]
    machine = _machine(physical, billions)
    machine.install_faults(FaultPlan.empty())
    sort = p2p_sort if algorithm == "p2p" else het_sort
    result = sort(machine, _data(physical))
    expected = golden[case]
    assert result.duration == expected["duration"]
    assert result.phase_durations == expected["phases"]
    spans = sorted([s.phase, s.actor, s.start, s.end, s.bytes]
                   for s in machine.trace.spans)
    assert spans == expected["spans"]
    assert result.degraded is False
    assert result.retries == result.reroutes == result.timeouts == 0
    assert result.fault_downtime == 0.0


def _chaos_plan(clean, down_resource: str, straggler_gpu: int) -> FaultPlan:
    """Straggler + one transient kill + one P2P-link-down window,
    timed off the clean run's phase boundaries so each fault actually
    intersects the work it targets."""
    phases = clean.phase_durations
    htod = phases.get("HtoD", clean.duration * 0.1)
    pre_transfer_out = htod + phases.get("Sort", 0.0)
    return FaultPlan(
        events=(
            StragglerGpu(at=0.0, gpu=straggler_gpu,
                         duration=10.0 * clean.duration, slowdown=2.0),
            TransientTransfer(at=0.5 * htod),
            LinkDown(at=0.95 * pre_transfer_out, resource=down_resource,
                     duration=10.0 * clean.duration),
        ),
        seed=99,
    )


def _run_chaos(algorithm: str):
    # Both variants move chunks over the NVSwitch in their merge phase
    # (HET via GPU-merged groups), so a down port forces PCIe detours.
    # A host-side PCIe link has no detour on the DGX — GPUs never
    # forward traffic — so copies would park instead of re-routing.
    if algorithm == "p2p":
        def sort(machine, data):
            return p2p_sort(machine, data)
    else:
        def sort(machine, data):
            return het_sort(machine, data,
                            config=HetConfig(gpu_merge_groups=True))
    clean = sort(_machine(), _data())
    plan = _chaos_plan(clean, "nvswitch_port_gpu2", straggler_gpu=5)
    results = []
    timelines = []
    for _ in range(2):
        machine = _machine()
        machine.install_faults(plan)
        results.append(sort(machine, _data()))
        timelines.append(machine.faults.timeline_keys())
    return clean, results, timelines


@pytest.mark.chaos
@pytest.mark.parametrize("algorithm", ["p2p", "het"])
@pytest.mark.usefixtures("copy_oracle")
def test_chaos_scenario_degrades_gracefully(algorithm):
    clean, (first, second), (timeline_a, timeline_b) = _run_chaos(algorithm)

    # The sort survived the faults and the output is still correct.
    assert np.all(np.diff(first.output) >= 0)
    assert len(first.output) == len(clean.output)

    # Recovery work happened and is reported.
    assert first.degraded is True
    assert first.retries >= 1
    assert first.reroutes >= 1
    assert first.fault_downtime > 0.0
    assert first.duration > clean.duration
    # A 2x straggler stays below the 4x exclusion factor: all GPUs kept.
    assert first.excluded_gpus == ()
    assert first.gpu_ids == clean.gpu_ids
    assert "degraded" in first.summary()

    # Same plan, fresh machine: bit-identical virtual time and timeline.
    assert second.duration == first.duration
    assert second.phase_durations == first.phase_durations
    assert second.retries == first.retries
    assert second.reroutes == first.reroutes
    assert timeline_b == timeline_a


@pytest.mark.chaos
def test_generated_plan_chaos_is_reproducible():
    """FaultPlan.generate -> install -> sort, twice: identical runs."""
    durations = []
    for _ in range(2):
        machine = _machine()
        plan = FaultPlan.generate(machine.spec, seed=4, intensity=2.0,
                                  horizon=0.3)
        machine.install_faults(plan)
        result = het_sort(machine, _data())
        assert np.all(np.diff(result.output) >= 0)
        durations.append(result.duration)
    assert durations[0] == durations[1]
