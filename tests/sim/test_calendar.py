"""Unit tests of the array-of-struct completion calendar.

The calendar is exercised end-to-end by every flow test; these tests
pin its bookkeeping contracts directly: (time, seq) ordering against
the object heap, bulk invalidation accounting (``events_retired``), the
side heap for single pushes, and lazy rebuild semantics.
"""

import numpy as np
import pytest

from repro.sim.engine import Environment, SimProfile, SimulationError
from repro.sim.flows import FlowNetwork
from repro.sim.resources import Direction, Resource

FWD = Direction.FWD


def _manual_calendar(env):
    """Register a calendar backed by plain test-owned arrays."""
    state = {
        "remaining": np.zeros(64),
        "rate": np.ones(64),
        "token": np.zeros(64, dtype=np.int64),
        "active": np.zeros(64, dtype=bool),
        "dispatched": [],
    }
    cal = env.register_calendar(
        lambda slot, token: state["dispatched"].append((slot, token)),
        lambda slots: env._now + state["remaining"][slots]
        / state["rate"][slots],
        lambda slots, tokens: state["active"][slots]
        & (state["token"][slots] == tokens))
    return cal, state


def _arm(state, slot, remaining, token=1):
    state["remaining"][slot] = remaining
    state["rate"][slot] = 1.0
    state["token"][slot] = token
    state["active"][slot] = True


class TestRegistration:
    def test_second_registration_rejected(self):
        env = Environment()
        FlowNetwork(env)
        with pytest.raises(SimulationError, match="already has"):
            FlowNetwork(env)


class TestOrdering:
    def test_bulk_entries_dispatch_in_time_order(self):
        env = Environment()
        cal, state = _manual_calendar(env)
        for slot, remaining in [(0, 3.0), (1, 1.0), (2, 2.0)]:
            _arm(state, slot, remaining)
        eid0 = env._reserve_eids(3)
        cal.stage(np.array([0, 1, 2]), np.arange(eid0, eid0 + 3),
                  np.ones(3, dtype=np.int64))
        env.run()
        assert state["dispatched"] == [(1, 1), (2, 1), (0, 1)]
        assert env.now == 3.0

    def test_same_time_breaks_ties_by_sequence(self):
        env = Environment()
        cal, state = _manual_calendar(env)
        for slot in (0, 1, 2):
            _arm(state, slot, 5.0)
        eid0 = env._reserve_eids(3)
        cal.stage(np.array([0, 1, 2]), np.arange(eid0, eid0 + 3),
                  np.ones(3, dtype=np.int64))
        env.run()
        # Equal times: staging (arrival) order wins, like the heap did.
        assert state["dispatched"] == [(0, 1), (1, 1), (2, 1)]

    def test_calendar_interleaves_with_object_events(self):
        env = Environment()
        cal, state = _manual_calendar(env)
        seen = []
        _arm(state, 0, 2.0)
        cal.stage(np.array([0]), np.array([env._reserve_eids(1)]),
                  np.ones(1, dtype=np.int64))
        state["dispatched"] = seen  # record interleaving directly

        def proc():
            yield env.timeout(1.0)
            seen.append("t1")
            yield env.timeout(2.0)
            seen.append("t3")

        env.process(proc())
        env.run()
        assert seen == ["t1", (0, 1), "t3"]

    def test_push_merges_with_staged_bulk(self):
        env = Environment()
        cal, state = _manual_calendar(env)
        _arm(state, 0, 4.0, token=1)
        cal.stage(np.array([0]), np.array([env._reserve_eids(1)]),
                  np.ones(1, dtype=np.int64))
        _arm(state, 5, 1.0, token=2)
        cal.push(1.0, env._reserve_eids(1), 5, 2)
        env.run()
        assert state["dispatched"] == [(5, 2), (0, 1)]


class TestInvalidation:
    def test_restaging_counts_discarded_entries(self):
        env = Environment()
        cal, state = _manual_calendar(env)
        for slot in (0, 1, 2):
            _arm(state, slot, 1.0)
        eids = np.arange(env._reserve_eids(3), env._eid + 1)
        cal.stage(np.array([0, 1, 2]), eids, np.ones(3, dtype=np.int64))
        # Restage before any rebuild: all three staged entries retire.
        cal.stage(np.array([0]), np.array([env._reserve_eids(1)]),
                  np.array([1], dtype=np.int64))
        assert cal.invalidated == 3
        env.run()
        assert state["dispatched"] == [(0, 1)]
        assert env.events_processed == 1
        assert env.events_retired == 4

    def test_rebuild_drops_token_mismatches(self):
        env = Environment()
        cal, state = _manual_calendar(env)
        _arm(state, 0, 1.0, token=1)
        _arm(state, 1, 1.0, token=7)  # staged under a stale token
        eid0 = env._reserve_eids(2)
        cal.stage(np.array([0, 1]), np.arange(eid0, eid0 + 2),
                  np.array([1, 1], dtype=np.int64))
        env.run()
        assert state["dispatched"] == [(0, 1)]
        assert cal.invalidated == 1

    def test_stale_single_push_dispatches_as_noop(self):
        # Side-heap entries are not bulk-discarded; like the old
        # per-object completions they pop through the engine and the
        # owner's token check makes them no-ops.
        env = Environment()
        cal, state = _manual_calendar(env)
        _arm(state, 0, 1.0, token=1)
        cal.push(1.0, env._reserve_eids(1), 0, token=99)
        env.run()
        assert state["dispatched"] == [(0, 99)]
        assert env.events_processed == 1


class TestPeekAndRunDry:
    def test_peek_sees_calendar_head(self):
        env = Environment()
        cal, state = _manual_calendar(env)
        _arm(state, 0, 2.5)
        cal.stage(np.array([0]), np.array([env._reserve_eids(1)]),
                  np.ones(1, dtype=np.int64))
        env.timeout(9.0)
        assert env.peek() == 2.5

    def test_run_until_event_raises_when_both_queues_dry(self):
        env = Environment()
        _manual_calendar(env)
        with pytest.raises(SimulationError, match="ran dry"):
            env.run(env.event())

    def test_run_until_deadline_stops_before_calendar_entry(self):
        env = Environment()
        cal, state = _manual_calendar(env)
        _arm(state, 0, 5.0)
        cal.stage(np.array([0]), np.array([env._reserve_eids(1)]),
                  np.ones(1, dtype=np.int64))
        env.run(until=3.0)
        assert env.now == 3.0
        assert state["dispatched"] == []
        env.run()
        assert state["dispatched"] == [(0, 1)]


class TestNetworkIntegration:
    def test_burst_of_same_instant_starts_is_one_rebuild(self):
        # N same-instant overlapping starts: each start only marks its
        # seed and stages, so the network settles (fills) once and the
        # calendar sorts once — and every superseded stage retires in
        # bulk instead of becoming a popped no-op event.
        env = Environment()
        profile = env.profile = SimProfile()
        net = FlowNetwork(env)
        link = Resource("l", 10.0)
        flows = [net.start_flow([(link, FWD)], 10.0, label=f"f{i}")
                 for i in range(8)]
        cal = env._calendar
        assert cal.dirty  # nothing rebuilt until the engine needs it
        # The first start is a single-flow fast path (side-heap push);
        # starts 2..8 each supersede the previous stage of 2..7 entries.
        assert cal.invalidated == sum(range(2, 8))
        # The seven overlapping starts pend one settle; nothing filled.
        assert [flow.label for flow in net._pending] == [
            f"f{i}" for i in range(1, 8)]
        assert net.full_reallocations == 1
        assert profile.fills == profile.rebuilds == 0
        env.run()
        assert profile.fills == profile.rebuilds == 1
        assert net.full_reallocations == 1
        assert all(flow.finished_at == 8.0 for flow in flows)
        assert not net.active_flows

    def test_observer_settles_early_without_changing_the_run(self):
        # An attached recorder reads rates at every transition, so the
        # network settles at each mark instead of once per instant.
        # Event ids are reserved at the mark and the calendar still
        # rebuilds lazily, so finish times and event counts (retired
        # and dispatched) match the unobserved run exactly.
        from repro.obs.recorder import Recorder

        def scenario(observed):
            env = Environment()
            net = FlowNetwork(env)
            if observed:
                env.obs = net.obs = Recorder()
            shared, side = Resource("s", 10.0), Resource("t", 4.0)
            flows = []

            def driver():
                for i in range(3):
                    flows.append(net.start_flow(
                        [(shared, FWD), (side, FWD)], 6.0 + i, label=f"a{i}"))
                yield env.timeout(0.5)
                net.abort_flow(flows[0])
                flows.extend(net.start_flows([
                    ([(shared, FWD)], 5.0, None, "b0"),
                    ([(side, FWD)], 3.0, 2.0, "b1")]))
                flows.append(net.start_flow([(shared, FWD)], 1e-9,
                                            label="tiny"))
                flows.append(net.start_flow([(shared, FWD)], 2.0,
                                            label="c"))

            env.process(driver())
            env.run()
            return ([flow.finished_at for flow in flows],
                    env.events_retired, env.events_processed,
                    net.full_reallocations)

        *observed, observed_settles = scenario(True)
        *blind, blind_settles = scenario(False)
        assert observed == blind
        assert observed_settles > blind_settles
