"""A plain sort whose task raises fails typed and leaves a clean machine.

No fault plan is installed, so nothing but the raising kernels can stop
the run.  Every phase still runs as a shielded task group, so the first
error fails its phase, the phase's other tasks are drained, and the
machine is as reusable as a fresh one.
"""

import numpy as np
import pytest

from repro.data import generate
from repro.errors import DeviceFaultError, RecoveryError
from repro.hw import dgx_a100, make_cluster
from repro.recovery import p2p_run
from repro.runtime import Machine
from repro.sort import hier_sort, p2p_sort
from repro.sort import p2p as p2p_module

FAILING_GPUS = (2, 3)


def _raise_on_failing_gpus(monkeypatch):
    """Make every local sort on GPUs 2 and 3 raise as it starts."""
    real = p2p_module.sort_chunk

    def sort_chunk(machine, chunk, primitive, size=None, scratch=False):
        if chunk.device.id in FAILING_GPUS:
            return _raise(chunk.device)
        return real(machine, chunk, primitive, size, scratch)

    # The plain P2P driver and hier's per-node pipeline each name it.
    monkeypatch.setattr(p2p_module, "sort_chunk", sort_chunk)
    monkeypatch.setattr(p2p_run, "sort_chunk", sort_chunk)


def _raise(device):
    raise DeviceFaultError(f"{device.name}: injected kernel error")
    yield  # pragma: no cover - makes this a generator


def _assert_clean(machine):
    assert [device.allocated_logical for device in machine.devices] == \
        [0] * len(machine.devices)
    assert machine.net.active_flows == []
    assert machine.in_flight == {}


@pytest.mark.parametrize("case", ["p2p", "hier"])
def test_raising_task_fails_typed_and_leaves_a_clean_machine(case,
                                                             monkeypatch):
    data = generate(100_000, "uniform", np.int32, seed=5)
    if case == "p2p":
        machine = Machine(dgx_a100())
        sort = p2p_sort
    else:
        machine = Machine(make_cluster("dgx-a100", 2))
        sort = hier_sort
    assert machine.faults is None

    _raise_on_failing_gpus(monkeypatch)
    with pytest.raises(RecoveryError):
        sort(machine, data)
    _assert_clean(machine)

    monkeypatch.undo()
    retry = sort(machine, data)
    assert np.array_equal(retry.output, np.sort(data))
    _assert_clean(machine)
