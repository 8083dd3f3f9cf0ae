"""Unit tests of the discrete-event kernel."""

import pytest

from repro.sim.engine import Environment, Interrupt, SimulationError


class TestEvent:
    def test_pending_event_has_no_value(self, env):
        event = env.event()
        assert not event.triggered
        with pytest.raises(SimulationError):
            _ = event.value

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42
        assert event.ok

    def test_double_trigger_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_failed_event_propagates_to_process(self, env):
        event = env.event()
        caught = []

        def proc():
            try:
                yield event
            except ValueError as exc:
                caught.append(exc)

        env.process(proc())
        event.fail(ValueError("boom"))
        env.run()
        assert len(caught) == 1

    def test_unhandled_failure_raises_from_run(self, env):
        event = env.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        def proc():
            yield env.timeout(5.0)
            return env.now

        p = env.process(proc())
        assert env.run(p) == 5.0

    def test_timeouts_fire_in_order(self, env):
        order = []

        def proc(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(3.0, "c"))
        env.process(proc(1.0, "a"))
        env.process(proc(2.0, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_fire_in_scheduling_order(self, env):
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in "abc":
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_timeout_carries_value(self, env):
        def proc():
            value = yield env.timeout(1.0, value="payload")
            return value

        assert env.run(env.process(proc())) == "payload"


class TestProcess:
    def test_return_value(self, env):
        def proc():
            yield env.timeout(1)
            return "done"

        assert env.run(env.process(proc())) == "done"

    def test_nested_yield_from(self, env):
        def inner():
            yield env.timeout(2)
            return 7

        def outer():
            value = yield from inner()
            return value * 2

        assert env.run(env.process(outer())) == 14
        assert env.now == 2

    def test_exception_propagates(self, env):
        def proc():
            yield env.timeout(1)
            raise KeyError("inside")

        with pytest.raises(KeyError):
            env.run(env.process(proc()))

    def test_yield_non_event_raises(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_process_is_alive_until_done(self, env):
        def proc():
            yield env.timeout(5)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_waiting_on_already_processed_event(self, env):
        event = env.event()
        event.succeed("early")
        env.run()  # processes the event

        def proc():
            value = yield event
            return value

        assert env.run(env.process(proc())) == "early"

    def test_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                causes.append(interrupt.cause)

        def attacker(victim_proc):
            yield env.timeout(1)
            victim_proc.interrupt("stop it")

        v = env.process(victim())
        env.process(attacker(v))
        env.run(until=v)
        assert causes == ["stop it"]
        assert env.now == 1

    def test_interrupting_dead_process_raises(self, env):
        def quick():
            yield env.timeout(0)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_self_interrupt_rejected(self, env):
        def proc():
            env.active_process.interrupt()
            yield env.timeout(1)

        with pytest.raises(SimulationError):
            env.run(env.process(proc()))


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc():
            t1 = env.timeout(1, value="a")
            t2 = env.timeout(3, value="b")
            results = yield env.all_of([t1, t2])
            return sorted(results.values())

        assert env.run(env.process(proc())) == ["a", "b"]
        assert env.now == 3

    def test_any_of_fires_on_first(self, env):
        def proc():
            t1 = env.timeout(1, value="fast")
            t2 = env.timeout(10, value="slow")
            results = yield env.any_of([t1, t2])
            return list(results.values())

        assert env.run(env.process(proc())) == ["fast"]
        assert env.now == 1

    def test_operator_forms(self, env):
        def proc():
            yield env.timeout(1) & env.timeout(2)
            first = env.now
            yield env.timeout(1) | env.timeout(5)
            return (first, env.now)

        assert env.run(env.process(proc())) == (2, 3)

    def test_all_of_empty_succeeds_immediately(self, env):
        def proc():
            yield env.all_of([])
            return env.now

        assert env.run(env.process(proc())) == 0

    def test_all_of_failure_propagates(self, env):
        bad = env.event()

        def proc():
            yield env.all_of([env.timeout(1), bad])

        p = env.process(proc())
        bad.fail(ValueError("broken"))
        with pytest.raises(ValueError):
            env.run(p)

    def test_all_of_with_processed_events(self, env):
        done = env.event()
        done.succeed(1)
        env.run()

        def proc():
            yield env.all_of([done, env.timeout(2)])
            return env.now

        assert env.run(env.process(proc())) == 2

    def test_triggered_any_of_detaches_from_pending_inputs(self, env):
        never = env.event()

        def proc():
            for _ in range(5):
                yield env.any_of([env.timeout(1), never])

        env.run(env.process(proc()))
        assert never.callbacks == []

    def test_failed_all_of_detaches_from_pending_inputs(self, env):
        never = env.event()
        bad = env.event()

        def proc():
            with pytest.raises(ValueError):
                yield env.all_of([never, bad])

        p = env.process(proc())
        bad.fail(ValueError("broken"))
        env.run(p)
        assert never.callbacks == []

    def test_condition_born_triggered_detaches(self, env):
        done = env.event()
        done.succeed()
        env.run()
        never = env.event()
        condition = env.any_of([never, done])
        assert condition.triggered
        assert never.callbacks == []


class TestEnvironmentRun:
    def test_run_until_time(self):
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(5)
            fired.append(env.now)

        env.process(proc())
        env.run(until=3.0)
        assert env.now == 3.0
        assert not fired
        env.run(until=10.0)
        assert fired == [5.0]
        assert env.now == 10.0

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_run_drains_queue(self, env):
        hits = []

        def proc():
            yield env.timeout(1)
            hits.append(1)

        env.process(proc())
        env.run()
        assert hits == [1]

    def test_run_until_event_queue_dry_raises(self, env):
        never = env.event()
        with pytest.raises(SimulationError, match="ran dry"):
            env.run(until=never)

    def test_peek_reports_next_event_time(self, env):
        env.timeout(7.5)
        assert env.peek() == 7.5

    def test_peek_empty_queue_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_step_without_events_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_initial_time(self):
        env = Environment(initial_time=100.0)
        assert env.now == 100.0


class TestReprs:
    def test_event_repr_states(self, env):
        event = env.event()
        assert "pending" in repr(event)
        event.succeed()
        assert "triggered" in repr(event)
        env.run()
        assert "processed" in repr(event)
