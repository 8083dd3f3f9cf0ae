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

import numpy as np

from repro.hw import dgx_a100, ibm_ac922
from repro.runtime import Machine
from repro.sort import het_sort, p2p_sort, rp_sort

#: Root spans ("P2PSort"/"HetSort"/"RPSort") are only recorded when
#: observability is on — they exist *for* the timeline — so the
#: equivalence check compares the simulation-driven spans.
_ROOT_PHASES = ("P2PSort", "HetSort", "RPSort")


def _run(spec_factory, algorithm, observed: bool):
    machine = Machine(spec_factory(), scale=1)
    if observed:
        machine.enable_observability()
    data = np.random.default_rng(31).integers(
        0, 1 << 24, size=8192).astype(np.int32)
    result = algorithm(machine, data)
    spans = [(s.phase, s.actor, s.start, s.end, s.bytes)
             for s in machine.trace.spans if s.phase not in _ROOT_PHASES]
    return spans, result.duration, machine.env.now, result.output


def _assert_equivalent(spec_factory, algorithm):
    base_spans, base_duration, base_now, base_out = _run(
        spec_factory, algorithm, observed=False)
    obs_spans, obs_duration, obs_now, obs_out = _run(
        spec_factory, algorithm, observed=True)
    assert obs_spans == base_spans
    assert obs_duration == base_duration
    assert obs_now == base_now
    assert np.array_equal(obs_out, base_out)


def test_p2p_on_dgx_is_bit_identical():
    _assert_equivalent(dgx_a100, p2p_sort)


def test_het_on_ac922_is_bit_identical():
    _assert_equivalent(ibm_ac922, het_sort)


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
