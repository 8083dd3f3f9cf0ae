"""The vectorized water-fill solver against the retained reference.

:func:`repro.sim.solver.water_fill_arrays` promises *bit-identical*
allocations to :func:`repro.sim.solver.water_fill_reference` (the
pre-vectorization dict implementation) — same divisions, same
first-minimum bottleneck choice, same charge rounding.  These tests pin
that contract on randomized topologies and on the degenerate cases the
array layout could plausibly get wrong: the zero-capacity guard, a
single flow, every flow on one link, and duplex contention.  They also
pin the flow network's component-scoped refill against a global
reference fill through random start/finish/abort/requery churn.

Comparisons use plain ``==`` on floats, never ``approx``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import make_cluster
from repro.runtime import Machine
from repro.sim import flows as flows_module
from repro.sim.engine import Environment, SimProfile, SimulationError
from repro.sim.flows import Flow, FlowNetwork
from repro.sim.resources import Direction, Resource, SharingCurve
from repro.sim.solver import water_fill_arrays, water_fill_reference
from repro.sort import hier_sort

FWD, REV = Direction.FWD, Direction.REV


class _DeadResource(Resource):
    """A resource whose effective capacity collapses to zero under load."""

    __slots__ = ()

    def effective_capacity(self, direction, flows_this_direction,
                           flows_other_direction):
        return 0.0


def _build(resource_specs, flow_specs):
    """Insert flows into a fresh network without allocating rates.

    ``_insert`` maintains both the dict membership index (what the
    reference reads) and the flow/key tables (what the vectorized
    solver reads), so both solvers see exactly the same state.
    """
    env = Environment()
    net = FlowNetwork(env)
    resources = [
        Resource(f"r{i}", cap, duplex_factor=duplex,
                 sharing=SharingCurve(sharing) if sharing else None)
        for i, (cap, duplex, sharing) in enumerate(resource_specs)]
    flows = []
    for j, (hops, size, rate_cap) in enumerate(flow_specs):
        route = [(resources[idx], REV if rev else FWD) for idx, rev in hops]
        flow = Flow(net, route, size, rate_cap=rate_cap, label=f"f{j}")
        net._insert(flow)
        flows.append(flow)
    return net, resources, flows


def _assert_solvers_agree(net):
    """Both solvers produce identical rates (or identical errors)."""
    act = net._ft.active_slots()
    flows = list(net._flows)
    assert len(flows) == len(act)
    try:
        ref = water_fill_reference(net._flows, net._members, net._resources)
    except SimulationError as expected:
        with pytest.raises(SimulationError) as caught:
            water_fill_arrays(net._ft, net._kt, act, members=net._members)
        assert str(caught.value) == str(expected)
        return None
    vec = water_fill_arrays(net._ft, net._kt, act, members=net._members)
    for i, flow in enumerate(flows):
        assert vec[i] == ref[flow], (
            f"{flow.label}: vectorized {vec[i]!r} != reference "
            f"{ref[flow]!r}")
    return ref


# -- randomized topologies -----------------------------------------------

_capacity = st.floats(min_value=0.5, max_value=100.0,
                      allow_nan=False, allow_infinity=False)
_size = st.floats(min_value=1.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False)
_rate_cap = st.floats(min_value=0.1, max_value=50.0,
                      allow_nan=False, allow_infinity=False)
_resource_spec = st.tuples(
    _capacity,
    st.sampled_from([1.0, 0.5, 0.8]),
    st.sampled_from([None, {2: 0.5}, {2: 0.9, 4: 0.6}]))


@st.composite
def _scenarios(draw):
    n_res = draw(st.integers(min_value=1, max_value=5))
    resource_specs = [draw(_resource_spec) for _ in range(n_res)]
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flow_specs = []
    for _ in range(n_flows):
        hops = draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=n_res - 1),
                      st.booleans()),
            min_size=0, max_size=4))
        rate_cap = draw(st.one_of(st.none(), _rate_cap))
        if not hops and rate_cap is None:
            rate_cap = draw(_rate_cap)  # unconstrained flows are invalid
        flow_specs.append((hops, draw(_size), rate_cap))
    return resource_specs, flow_specs


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_randomized_topologies_allocate_identically(scenario):
    resource_specs, flow_specs = scenario
    net, _resources, _flows = _build(resource_specs, flow_specs)
    _assert_solvers_agree(net)


# -- degenerate cases ----------------------------------------------------

def test_single_flow():
    net, _r, flows = _build([(10.0, 1.0, None)], [([(0, False)], 50.0, None)])
    ref = _assert_solvers_agree(net)
    assert ref[flows[0]] == 10.0


def test_single_flow_rate_capped():
    net, _r, flows = _build([(10.0, 1.0, None)],
                            [([(0, False)], 50.0, 2.5)])
    ref = _assert_solvers_agree(net)
    assert ref[flows[0]] == 2.5


def test_routeless_capped_flow():
    net, _r, flows = _build([], [([], 50.0, 7.0)])
    ref = _assert_solvers_agree(net)
    assert ref[flows[0]] == 7.0


def test_all_flows_on_one_link():
    specs = [([(0, False)], 10.0 + i, None) for i in range(7)]
    net, _r, flows = _build([(21.0, 1.0, None)], specs)
    ref = _assert_solvers_agree(net)
    assert all(ref[f] == 3.0 for f in flows)


def test_duplex_contention():
    # Both directions of one duplex-penalized resource: capacity halves
    # while the opposite direction is busy.
    specs = [([(0, False)], 40.0, None), ([(0, True)], 40.0, None)]
    net, _r, flows = _build([(10.0, 0.5, None)], specs)
    ref = _assert_solvers_agree(net)
    assert ref[flows[0]] == 5.0
    assert ref[flows[1]] == 5.0


def test_same_resource_both_directions_one_route():
    net, _r, _f = _build(
        [(10.0, 0.8, None)],
        [([(0, False), (0, True)], 40.0, None)])
    _assert_solvers_agree(net)


def test_zero_capacity_guard_raises_identically():
    env = Environment()
    net = FlowNetwork(env)
    good = Resource("good", 10.0)
    dead = _DeadResource("dead", 10.0)
    for j, route in enumerate([[(good, FWD)], [(good, FWD), (dead, FWD)]]):
        flow = Flow(net, route, 10.0, label=f"f{j}")
        net._insert(flow)
    with pytest.raises(SimulationError, match="zero effective capacity"):
        water_fill_reference(net._flows, net._members, net._resources)
    _assert_solvers_agree(net)


def test_capped_flows_freeze_before_bottlenecks():
    # Two capped flows (one tighter) and a free flow on one link; the
    # reference freezes capped flows tightest-first.
    specs = [([(0, False)], 30.0, 2.0),
             ([(0, False)], 30.0, 3.0),
             ([(0, False)], 30.0, None)]
    net, _r, flows = _build([(12.0, 1.0, None)], specs)
    ref = _assert_solvers_agree(net)
    assert ref[flows[0]] == 2.0
    assert ref[flows[1]] == 3.0
    assert ref[flows[2]] == 7.0


def test_fault_factor_respected():
    net, resources, flows = _build(
        [(10.0, 1.0, None)], [([(0, False)], 50.0, None)])
    resources[0].set_fault_factor(0.25)
    net._kt.refresh_faults()
    ref = _assert_solvers_agree(net)
    assert ref[flows[0]] == 2.5


# -- component-scoped refill ---------------------------------------------
#
# A reallocation refills only the flows its change can reach (the
# resource-connected component of the started, finished or aborted
# flows).  After every step of a random churn sequence, each live
# flow's rate must still equal a *global* reference fill over all live
# flows, bit for bit.

def _assert_matches_global(net):
    ref = water_fill_reference(net._flows, net._members, net._resources)
    for flow in net._flows:
        assert flow.rate == ref[flow], (
            f"{flow.label}: scoped {flow.rate!r} != global {ref[flow]!r}")


_hops = st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                           st.booleans()),
                 min_size=0, max_size=3)
# Sub-epsilon sizes finish in the next start's catch-up sweep.
_start = st.tuples(st.just("start"), _hops,
                   st.one_of(_size, st.just(1e-9)),
                   st.one_of(st.none(), _rate_cap))
_churn_op = st.one_of(
    _start,
    st.tuples(st.just("batch"), st.lists(_start, min_size=1, max_size=3)),
    st.tuples(st.just("abort"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=5.0)),
    st.tuples(st.just("fault"), st.integers(min_value=0, max_value=5),
              st.sampled_from([0.25, 0.5, 1.0])),
    st.tuples(st.just("requery")))


def _start_args(op, resources, label):
    _kind, hops, size, rate_cap = op
    if not hops and rate_cap is None:
        rate_cap = 1.0  # unconstrained flows are invalid
    route = [(resources[i % len(resources)], REV if rev else FWD)
             for i, rev in hops]
    return route, size, rate_cap, label


@settings(max_examples=200, deadline=None)
@given(st.lists(_resource_spec, min_size=2, max_size=6),
       st.lists(_churn_op, min_size=1, max_size=14),
       st.sampled_from([64, 2]))
def test_scoped_refill_matches_global_fill(resource_specs, ops,
                                           small_fill_n):
    # small_fill_n=2 sends every component wider than two flows down
    # the vectorized all-flows path; 64 keeps them on the reference.
    env = Environment()
    net = FlowNetwork(env)
    resources = [
        Resource(f"r{i}", cap, duplex_factor=duplex,
                 sharing=SharingCurve(sharing) if sharing else None)
        for i, (cap, duplex, sharing) in enumerate(resource_specs)]
    with mock.patch.object(flows_module, "_SMALL_FILL_N", small_fill_n):
        for step, op in enumerate(ops):
            kind = op[0]
            settled = True
            try:
                if kind == "start":
                    net.start_flow(*_start_args(op, resources, f"f{step}"))
                elif kind == "batch":
                    net.start_flows([
                        _start_args(sub, resources, f"f{step}.{j}")
                        for j, sub in enumerate(op[1])])
                elif kind == "abort":
                    live = list(net._flows)
                    if not live:
                        continue
                    aborted = net.aborted_flows
                    net.abort_flow(live[op[1] % len(live)])
                    # An abort that finds its flow already finished (in
                    # its catch-up sweep) re-rates nobody; neighbours
                    # stay stale until the next reallocation, exactly
                    # as with a global fill.
                    settled = net.aborted_flows > aborted
                elif kind == "run":
                    env.run(until=env.now + op[1])
                elif kind == "fault":
                    resources[op[1] % len(resources)].set_fault_factor(
                        op[2])
                    net.requery_capacity()
                else:
                    net.requery_capacity()
            except SimulationError:
                # Zero bandwidth left somewhere: the global fill must
                # fail on the same live set too.
                with pytest.raises(SimulationError):
                    water_fill_reference(net._flows, net._members,
                                         net._resources)
                return
            if settled:
                _assert_matches_global(net)


def test_opposite_directions_share_one_component(env, net):
    # FWD and REV of one duplex link share no membership key, but the
    # duplex factor couples their capacities.
    link = Resource("duplex", 10.0, duplex_factor=0.5)
    fwd = net.start_flow([(link, FWD)], 100.0, label="fwd")
    assert fwd.rate == 10.0
    rev = net.start_flow([(link, REV)], 100.0, label="rev")
    assert net._component([rev]) == [fwd, rev]
    assert fwd.rate == rev.rate == 5.0
    _assert_matches_global(net)
    net.abort_flow(rev)
    assert fwd.rate == 10.0
    _assert_matches_global(net)


def test_component_excludes_unreachable_flows(env, net):
    a, b = Resource("a", 10.0), Resource("b", 10.0)
    on_a = net.start_flow([(a, FWD)], 100.0, label="on_a")
    on_b = net.start_flow([(b, FWD)], 100.0, label="on_b")
    assert net._component([on_a]) == [on_a]
    bridge = net.start_flow([(a, FWD), (b, FWD)], 100.0, label="bridge")
    assert net._component([on_b]) == [on_a, on_b, bridge]
    _assert_matches_global(net)


def test_equal_rate_caps_in_different_components(env, net):
    # A capped freeze in a global fill freezes every flow at the tightest
    # cap at once, across components; each component alone must still
    # freeze its own at the same value.
    a, b = Resource("a", 9.0), Resource("b", 7.0)
    flows = [net.start_flow([(a, FWD)], 50.0, rate_cap=2.0, label="a0"),
             net.start_flow([(a, FWD)], 50.0, label="a1"),
             net.start_flow([(b, FWD)], 50.0, rate_cap=2.0, label="b0"),
             net.start_flow([(b, FWD)], 50.0, label="b1")]
    assert [f.rate for f in flows] == [2.0, 7.0, 2.0, 5.0]
    _assert_matches_global(net)
    net.abort_flow(flows[1])
    assert flows[0].rate == 2.0 and flows[3].rate == 5.0
    _assert_matches_global(net)


def test_routeless_capped_flows_refill_alone(env, net):
    link = Resource("l", 10.0)
    shared = [net.start_flow([(link, FWD)], 20.0 + i, label=f"s{i}")
              for i in range(2)]
    lone = net.start_flow([], 30.0, rate_cap=3.0, label="lone")
    assert lone.rate == 3.0
    assert net._component([lone]) == [lone]
    # A batch start that also reaches the shared link refills it while
    # the route-less flow keeps its cap.
    late = net.start_flows([([], 10.0, 4.0, "late"),
                            ([(link, FWD)], 10.0, None, "s2")])
    assert late[0].rate == 4.0 and lone.rate == 3.0
    assert all(f.rate == 10.0 / 3 for f in shared)
    _assert_matches_global(net)
    env.run()
    assert not net._flows


def test_equal_shares_on_two_keys_of_one_component(env, net):
    # Keys a and b tie on their fair share.  The global fill freezes the
    # lower key slot first (b: its first flow arrived first), and the
    # charge then leaves a's remaining flows one ulp higher.  A fill
    # started from the last flow on a reaches a before b; it must still
    # visit the keys in slot order to break the tie the same way.
    a, b = Resource("a", 20.7), Resource("b", 13.799999999999999)
    assert 20.7 / 3 == 13.799999999999999 / 2 == 6.8999999999999995
    # An unrelated flow keeps the component smaller than the network.
    net.start_flow([(Resource("c", 1.0), FWD)], 40.0, label="c")
    on_b = net.start_flow([(b, FWD)], 40.0, label="b")
    on_a = net.start_flow([(a, FWD)], 40.0, label="a")
    both = net.start_flow([(a, FWD), (b, FWD)], 40.0, label="ab")
    last = net.start_flow([(a, FWD)], 40.0, label="a2")
    assert on_b.rate == both.rate == 6.8999999999999995
    assert on_a.rate == last.rate == 6.9
    _assert_matches_global(net)


@pytest.mark.parametrize("batched", [False, True])
def test_sweep_finished_flows_seed_the_refill(env, net, batched):
    # A sub-epsilon flow finishes in the catch-up sweep of the next
    # start.  That start lands on another link, yet the finished flow's
    # neighbour must be re-rated too.
    link, other = Resource("l", 10.0), Resource("o", 10.0)
    big = net.start_flow([(link, FWD)], 50.0, label="big")
    net.start_flow([(link, FWD)], 1e-9, label="tiny")
    assert big.rate == 5.0
    if batched:
        net.start_flows([([(other, FWD)], 50.0, None, "new")])
    else:
        net.start_flow([(other, FWD)], 50.0, label="new")
    assert big.rate == 10.0
    _assert_matches_global(net)


def test_simultaneous_finishes_refill_every_component(env, net):
    # The first completion's sweep finishes both short flows at t=2;
    # the second's calendar entry is then a no-op, so the one refill
    # must reach both links.
    one, two = Resource("one", 10.0), Resource("two", 10.0)
    flows = [net.start_flow([(link, FWD)], size, label=f"{link.name}{size}")
             for link in (one, two) for size in (10.0, 30.0)]
    assert all(f.rate == 5.0 for f in flows)
    env.run(until=2.0)
    assert flows[0].finished_at == flows[2].finished_at == 2.0
    assert flows[1].rate == flows[3].rate == 10.0
    _assert_matches_global(net)


def test_stale_neighbours_refilled_by_the_next_reallocation(env, net):
    # An abort that lands exactly at its flow's completion instant (a
    # timeout scheduled first wins the tie) finds the flow finished in
    # its catch-up sweep and re-rates nobody.  The next reallocation —
    # here triggered on an unrelated link — must still refill the
    # finished flow's neighbour, as a global fill would.
    link, other = Resource("l", 10.0), Resource("o", 10.0)
    tick = env.timeout(2.0)
    short = net.start_flow([(link, FWD)], 10.0, label="short")
    long = net.start_flow([(link, FWD)], 30.0, label="long")
    busy = net.start_flow([(other, FWD)], 50.0, label="busy")
    tick.callbacks.append(lambda _event: net.abort_flow(short))
    env.run(until=tick)
    assert short.finished_at == 2.0 and net.aborted_flows == 0
    assert long.rate == 5.0  # stale: nothing re-rated it yet
    net.start_flow([(other, FWD)], 50.0, label="busy2")
    assert long.rate == 10.0
    assert busy.rate == 5.0
    _assert_matches_global(net)


def test_profile_counts_scoped_fills_on_a_cluster_sort(monkeypatch):
    live_at_fill = []
    reallocate = FlowNetwork._reallocate

    def counting(self, seeds):
        if self._flows:
            live_at_fill.append(len(self._flows))
        return reallocate(self, seeds)

    monkeypatch.setattr(FlowNetwork, "_reallocate", counting)
    machine = Machine(make_cluster("dgx-a100", 4, fabric="fat-tree"),
                      scale=64_000.0, fast_functional=True)
    profile = machine.env.profile = SimProfile()
    data = np.random.default_rng(3).integers(
        0, 1 << 30, 4 * 4096, dtype=np.int32)
    result = hier_sort(machine, data)
    assert np.array_equal(result.output, np.sort(data))
    record = profile.to_json()
    assert record["fills"] == len(live_at_fill) > 0
    assert 0 < record["fill_flows"] < sum(live_at_fill)
    assert 0 <= record["wide_fills"] <= record["fills"]
