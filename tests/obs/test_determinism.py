"""Observability must not perturb the simulation.

The recorder is read-only and every emit site is gated on ``obs is not
None``, so a run with observability enabled must be *bit-identical* in
simulated time to the same run without it.  These tests run the same
sort twice — instrumented and not — and require identical span
tuples, durations, and final clocks.  (The committed goldens in
``tests/sim`` separately pin the uninstrumented behaviour across
commits.)
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.hw import dgx_a100, ibm_ac922
from repro.recovery import SortSupervisor
from repro.runtime import Machine
from repro.sort import HetConfig, het_sort, p2p_sort, rp_sort

#: Root spans ("P2PSort"/"HetSort"/...) are only recorded when
#: observability is on — they exist *for* the timeline — so the
#: equivalence check compares the simulation-driven spans.
_ROOT_PHASES = ("P2PSort", "HetSort", "RPSort", "SupervisedSort")

#: 8192 keys standing for 512 billion: 15 chunk groups (22 under 3n) on
#: the DGX A100, so the HET sorts stream out of core.
_OUT_OF_CORE_SCALE = 512e9 / 8192


def _supervised_het(machine, data):
    return SortSupervisor(machine).sort(data, algorithm="het")


def _run(spec_factory, algorithm, observed: bool, scale: float = 1):
    machine = Machine(spec_factory(), scale=scale)
    if observed:
        machine.enable_observability()
    data = np.random.default_rng(31).integers(
        0, 1 << 24, size=8192).astype(np.int32)
    result = algorithm(machine, data)
    spans = [(s.phase, s.actor, s.start, s.end, s.bytes)
             for s in machine.trace.spans if s.phase not in _ROOT_PHASES]
    return spans, result.duration, machine.env.now, result.output


def _assert_equivalent(spec_factory, algorithm, scale: float = 1):
    base_spans, base_duration, base_now, base_out = _run(
        spec_factory, algorithm, observed=False, scale=scale)
    obs_spans, obs_duration, obs_now, obs_out = _run(
        spec_factory, algorithm, observed=True, scale=scale)
    assert obs_spans == base_spans
    assert obs_duration == base_duration
    assert obs_now == base_now
    assert np.array_equal(obs_out, base_out)


def test_p2p_on_dgx_is_bit_identical():
    _assert_equivalent(dgx_a100, p2p_sort)


def test_het_on_ac922_is_bit_identical():
    _assert_equivalent(ibm_ac922, het_sort)


@pytest.mark.parametrize("algorithm", [
    partial(het_sort, config=HetConfig()),
    partial(het_sort, config=HetConfig(approach="3n")),
    partial(het_sort, config=HetConfig(eager_merge=True)),
    partial(het_sort, config=HetConfig(gpu_merge_groups=True)),
    _supervised_het,
], ids=["2n", "3n", "eager", "gpu-merged", "supervised"])
def test_out_of_core_het_on_dgx_is_bit_identical(algorithm):
    _assert_equivalent(dgx_a100, algorithm, scale=_OUT_OF_CORE_SCALE)


def test_rp_on_dgx_is_bit_identical():
    _assert_equivalent(dgx_a100, rp_sort)


def test_only_root_spans_are_added():
    base_spans, *_ = _run(dgx_a100, p2p_sort, observed=False)
    machine = Machine(dgx_a100(), scale=1)
    machine.enable_observability()
    data = np.random.default_rng(31).integers(
        0, 1 << 24, size=8192).astype(np.int32)
    p2p_sort(machine, data)
    extra = [s for s in machine.trace.spans if s.phase in _ROOT_PHASES]
    assert len(machine.trace.spans) == len(base_spans) + len(extra)
    assert len(extra) == 1
