"""Two supervised sorts sharing one simulated machine.

The service's core concurrency claim, tested without the service:
running :meth:`~repro.recovery.supervisor.SortSupervisor.sort_async`
under two processes on *disjoint* GPU gangs must produce exactly the
arrays each sort produces alone — including when one job replans
around a killed GPU while the other keeps its gang.
"""

import numpy as np
import pytest

from repro.faults.events import GpuFail
from repro.faults.plan import FaultPlan
from repro.hw import dgx_a100
from repro.recovery import SortSupervisor, SupervisorConfig
from repro.runtime import Machine

N = 16_000
SCALE = 1.0e9 / N
GANG_A = (0, 1, 2, 3)
GANG_B = (4, 5, 6, 7)


def _data(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**31, N, dtype=np.int64)


def _machine(plan=None) -> Machine:
    machine = Machine(dgx_a100(), scale=SCALE)
    if plan is not None:
        machine.install_faults(plan)
    return machine


def _run_concurrently(machine, jobs):
    """``jobs``: ``{name: (data, gpu_ids)}`` → ``{name: SortResult}``."""
    env = machine.env
    results = {}

    def job(name, data, gpu_ids):
        supervisor = SortSupervisor(
            machine, SupervisorConfig(job_label=name))
        results[name] = yield from supervisor.sort_async(
            data, algorithm="p2p", gpu_ids=gpu_ids)

    processes = [env.process(job(name, data, gpu_ids))
                 for name, (data, gpu_ids) in jobs.items()]
    env.run(until=env.all_of(processes))
    return results


@pytest.fixture(scope="module")
def solo_results():
    """Each job run alone on a fresh machine — the reference outputs."""
    return {
        "a": SortSupervisor(_machine()).sort(_data(1), algorithm="p2p",
                                             gpu_ids=GANG_A),
        "b": SortSupervisor(_machine()).sort(_data(2), algorithm="p2p",
                                             gpu_ids=GANG_B),
    }


class TestDisjointGangs:
    def test_concurrent_jobs_match_solo_runs(self, solo_results):
        results = _run_concurrently(_machine(), {
            "a": (_data(1), GANG_A),
            "b": (_data(2), GANG_B),
        })
        for name in ("a", "b"):
            assert np.array_equal(results[name].output,
                                  solo_results[name].output)
            assert results[name].gpu_ids == tuple(
                solo_results[name].gpu_ids)
            assert results[name].replans == 0

    def test_concurrent_jobs_overlap_in_time(self):
        machine = _machine()
        results = _run_concurrently(machine, {
            "a": (_data(1), GANG_A),
            "b": (_data(2), GANG_B),
        })
        # Both started at 0 on one clock; the episode is shorter than
        # the two durations back to back.
        total = results["a"].duration + results["b"].duration
        assert machine.env.now < total

    def test_concurrent_runs_are_deterministic(self):
        jobs = {"a": (_data(1), GANG_A), "b": (_data(2), GANG_B)}
        first = _run_concurrently(_machine(), dict(jobs))
        second = _run_concurrently(_machine(), dict(jobs))
        for name in jobs:
            assert first[name].duration == second[name].duration
            assert np.array_equal(first[name].output,
                                  second[name].output)


class TestFaultIsolation:
    def test_one_job_replans_while_the_other_is_unaffected(
            self, solo_results):
        """A GPU in job A's gang dies mid-run: A replans onto its
        survivors and still sorts; B's gang is untouched and its output
        identical to a solo run."""
        at = 0.5 * solo_results["a"].duration
        plan = FaultPlan(events=(GpuFail(at=at, gpu=2),))
        results = _run_concurrently(_machine(plan), {
            "a": (_data(1), GANG_A),
            "b": (_data(2), GANG_B),
        })
        assert results["a"].replans >= 1
        assert 2 in results["a"].excluded_gpus
        assert 2 not in results["a"].gpu_ids
        assert np.array_equal(results["a"].output,
                              np.sort(_data(1)))
        assert results["b"].replans == 0
        assert results["b"].excluded_gpus == ()
        assert tuple(results["b"].gpu_ids) == GANG_B
        assert np.array_equal(results["b"].output,
                              solo_results["b"].output)
