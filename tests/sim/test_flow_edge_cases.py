"""Edge cases of the incremental flow allocator.

These tests pin down behaviours at the boundaries the optimized
implementation must preserve: zero-byte flows racing real ones,
epsilon-residual completion, rate caps tighter than every bottleneck,
utilization and delivered accounting across partial completions, the
disjoint-route fast paths, and the zero-capacity diagnostics.
"""

import pytest

from repro.sim.engine import SimulationError
from repro.sim.resources import Direction, Resource

FWD, REV = Direction.FWD, Direction.REV


class _DeadResource(Resource):
    """A resource whose effective capacity collapses to zero under load."""

    __slots__ = ()

    def effective_capacity(self, direction, flows_this_direction,
                           flows_other_direction):
        return 0.0


class TestZeroByteFlows:
    def test_zero_byte_flow_races_nonzero(self, env, net):
        link = Resource("l", 10.0)
        big = net.start_flow([(link, FWD)], 50.0)
        reallocs_before = net.full_reallocations
        zero = net.start_flow([(link, FWD)], 0.0)
        # The zero-byte flow completes instantly and never enters the
        # allocator: the big flow's rate is untouched.
        assert zero.done.triggered
        assert zero.finished_at == env.now == 0.0
        assert net.full_reallocations == reallocs_before
        assert big.rate == pytest.approx(10.0)
        env.run()
        assert big.finished_at == pytest.approx(5.0)

    def test_sub_epsilon_flow_finishes_promptly(self, env, net):
        link = Resource("l", 10.0)
        tiny = net.start_flow([(link, FWD)], 1e-8)
        # Non-zero: completes through the engine, not synchronously...
        assert not tiny.done.triggered
        env.run()
        # ...but essentially immediately, and exactly.
        assert tiny.finished_at == env.now
        assert env.now <= 1e-8
        assert tiny.remaining == 0.0


class TestEpsilonResidual:
    def test_irrational_duration_finishes_exactly(self, env, net):
        # 10/3 seconds is not representable; the scheduled completion
        # leaves an ulp-scale residual that must be forgiven.
        link = Resource("l", 3.0)
        flow = net.start_flow([(link, FWD)], 10.0)
        env.run()
        assert flow.remaining == 0.0
        assert flow.finished_at == env.now
        assert env.now == pytest.approx(10.0 / 3.0)
        assert net.active_flows == []
        assert net.delivered[(link, FWD)] == pytest.approx(10.0)

    def test_residual_after_mid_flight_reallocation(self, env, net):
        # A reallocation mid-flight replaces the completion schedule;
        # the re-derived remaining bytes accumulate rounding the
        # epsilon force-finish must absorb.
        link = Resource("l", 3.0)
        a = net.start_flow([(link, FWD)], 10.0)

        def competitor():
            yield env.timeout(1.0)
            b = net.start_flow([(link, FWD)], 1.0)
            yield b.done

        env.process(competitor())
        env.run()
        # 1 s alone at 3.0 (7 left), then shared at 1.5 each for 2/3 s
        # (6 left), then alone at 3.0 again: done at 5/3 + 2 = 11/3.
        assert a.remaining == 0.0
        assert a.finished_at == pytest.approx(11.0 / 3.0)
        assert net.delivered[(link, FWD)] == pytest.approx(11.0)


class TestRateCaps:
    def test_cap_tighter_than_every_bottleneck(self, env, net):
        l1, l2 = Resource("l1", 10.0), Resource("l2", 20.0)
        flow = net.start_flow([(l1, FWD), (l2, FWD)], 10.0, rate_cap=2.0)
        assert flow.rate == pytest.approx(2.0)
        env.run()
        assert env.now == pytest.approx(5.0)

    def test_capped_flow_leaves_leftover_to_sharer(self, env, net):
        link = Resource("l", 10.0)
        capped = net.start_flow([(link, FWD)], 8.0, rate_cap=2.0)
        free = net.start_flow([(link, FWD)], 8.0)
        assert capped.rate == pytest.approx(2.0)
        assert free.rate == pytest.approx(8.0)
        env.run()
        assert free.finished_at == pytest.approx(1.0)
        assert capped.finished_at == pytest.approx(4.0)


class TestPartialCompletions:
    def test_utilization_tracks_partial_completion(self, env, net):
        link = Resource("l", 10.0)
        short = net.start_flow([(link, FWD)], 10.0)
        long = net.start_flow([(link, FWD)], 50.0)
        assert net.utilization(link, FWD) == pytest.approx(10.0)
        env.run(short.done)
        # The survivor was re-allocated the full link.
        assert short not in net.active_flows
        assert long in net.active_flows
        assert net.utilization(link, FWD) == pytest.approx(10.0)
        assert long.rate == pytest.approx(10.0)
        env.run()
        assert net.utilization(link, FWD) == 0.0

    def test_delivered_is_exact_mid_flight(self, env, net):
        link = Resource("l", 10.0)
        net.start_flow([(link, FWD)], 50.0)

        def probe():
            yield env.timeout(2.0)
            assert net.delivered[(link, FWD)] == pytest.approx(20.0)
            yield env.timeout(1.0)
            assert net.delivered[(link, FWD)] == pytest.approx(30.0)

        env.process(probe())
        env.run()
        assert net.delivered[(link, FWD)] == pytest.approx(50.0)


class TestFastPaths:
    def test_disjoint_flows_never_water_fill(self, env, net):
        l1, l2 = Resource("a", 5.0), Resource("b", 4.0)
        f1 = net.start_flow([(l1, FWD)], 10.0)
        f2 = net.start_flow([(l2, FWD)], 10.0)
        assert net.fast_starts == 2
        assert net.full_reallocations == 0
        assert f1.rate == pytest.approx(5.0)
        assert f2.rate == pytest.approx(4.0)
        env.run()
        assert net.fast_finishes == 2
        assert net.full_reallocations == 0
        assert f1.finished_at == pytest.approx(2.0)
        assert f2.finished_at == pytest.approx(2.5)

    def test_opposite_directions_are_not_disjoint(self, env, net):
        # FWD and REV of one resource interact through the duplex
        # factor, so the second start must take the full path.
        link = Resource("l", 10.0, duplex_factor=0.8)
        fwd = net.start_flow([(link, FWD)], 8.0)
        assert fwd.rate == pytest.approx(10.0)
        rev = net.start_flow([(link, REV)], 8.0)
        assert net.full_reallocations == 1
        assert fwd.rate == pytest.approx(8.0)
        assert rev.rate == pytest.approx(8.0)

    def test_overlapping_flows_fall_back_to_water_fill(self, env, net):
        link = Resource("l", 10.0)
        net.start_flow([(link, FWD)], 10.0)
        net.start_flow([(link, FWD)], 10.0)
        assert net.fast_starts == 1
        assert net.full_reallocations == 1
        env.run()
        # Both finish in the same sweep; the removal is disjoint.
        assert net.fast_finishes == 1
        assert net.full_reallocations == 1


class TestZeroCapacityDiagnostics:
    def test_water_fill_names_the_dead_resource(self, env, net):
        good = Resource("good", 10.0)
        dead = _DeadResource("dead", 10.0)
        net.start_flow([(good, FWD)], 10.0)
        # The start only marks the change; the fill that finds the dead
        # resource runs when the victim's rate is first read.
        victim = net.start_flow([(good, FWD), (dead, FWD)], 5.0,
                                label="victim")
        with pytest.raises(SimulationError, match="dead.*victim"):
            victim.rate

    def test_fast_path_reports_zero_bandwidth(self, env, net):
        dead = _DeadResource("dead", 10.0)
        with pytest.raises(SimulationError, match="zero bandwidth"):
            net.start_flow([(dead, FWD)], 5.0, label="victim")
