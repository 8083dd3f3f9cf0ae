"""Unit tests of the TaskGroup nursery on a bare environment."""

import pytest

from repro.errors import DeadlineExceededError
from repro.recovery import TaskGroup
from repro.sim.engine import Environment


def _worker(env, delay, result=None, fail=None, log=None):
    yield env.timeout(delay)
    if fail is not None:
        raise fail
    if log is not None:
        log.append(result)
    return result


class TestCompletion:
    def test_results_recorded_by_name(self):
        env = Environment()
        group = TaskGroup(env)

        def body(group):
            group.spawn(_worker(env, 0.1, result="a"), name="a")
            group.spawn(_worker(env, 0.2, result="b"), name="b")
            yield from ()

        env.process(group.run(body(group)))
        env.run()
        assert group.results["a"] == "a"
        assert group.results["b"] == "b"
        assert group.failure is None
        assert env.now == pytest.approx(0.2)

    def test_tasks_spawned_mid_phase_are_awaited(self):
        env = Environment()
        group = TaskGroup(env)
        log = []

        def body(group):
            yield env.timeout(0.1)
            group.spawn(_worker(env, 0.5, result="late", log=log),
                        name="late")

        env.process(group.run(body(group)))
        env.run()
        assert log == ["late"]
        assert env.now == pytest.approx(0.6)


class TestFailure:
    def test_first_failure_cancels_survivors(self):
        env = Environment()
        group = TaskGroup(env)
        log = []

        def body(group):
            group.spawn(_worker(env, 10.0, result="slow", log=log),
                        name="slow")
            group.spawn(_worker(env, 0.1, fail=ValueError("boom")),
                        name="bad")
            yield from ()

        env.process(group.run(body(group)))
        with pytest.raises(ValueError, match="boom"):
            env.run()
        # The slow task was interrupted, not run to completion.
        assert log == []
        assert env.now < 1.0
        assert isinstance(group.failure, ValueError)

    def test_note_failure_first_wins(self):
        env = Environment()
        group = TaskGroup(env)
        first, second = ValueError("first"), KeyError("second")
        group.note_failure(first)
        group.note_failure(second)
        assert group.failure is first


class TestCancellation:
    def test_cancelled_group_blocks_unstarted_tasks(self):
        env = Environment()
        group = TaskGroup(env)
        log = []
        group.cancel()
        group.spawn(_worker(env, 0.0, result="x", log=log), name="x")
        env.run()
        assert log == []

    def test_interrupt_task_sends_at_most_once(self):
        env = Environment()
        group = TaskGroup(env)
        proc = group.spawn(_worker(env, 10.0), name="w")
        env.run(until=0.1)
        assert group.interrupt_task(proc) is True
        assert group.interrupt_task(proc) is False
        env.run()
        assert not proc.is_alive


class TestDeadline:
    def test_deadline_raises_typed_error_at_the_deadline(self):
        env = Environment()
        group = TaskGroup(env, name="Work")

        def body(group):
            group.spawn(_worker(env, 10.0), name="slow")
            yield from ()

        deadline = env.timeout(1.0)
        env.process(group.run(body(group), deadline=deadline))
        with pytest.raises(DeadlineExceededError, match="Work"):
            env.run()
        assert env.now == pytest.approx(1.0)

    def test_generous_deadline_does_not_fire(self):
        env = Environment()
        group = TaskGroup(env)

        def body(group):
            group.spawn(_worker(env, 0.2, result="done"), name="t")
            yield from ()

        deadline = env.timeout(100.0)
        env.process(group.run(body(group), deadline=deadline))
        env.run(until=0.5)
        assert group.results["t"] == "done"
        assert group.failure is None


class TestSupervise:
    def test_siblings_drain_before_the_failure_reaches_the_caller(self):
        env = Environment()
        group = TaskGroup(env, name="Work")
        seen = {}

        def body(group):
            group.spawn(_worker(env, 10.0), name="slow")
            group.spawn(_worker(env, 0.1, fail=ValueError("boom")),
                        name="bad")
            yield from ()

        def caller():
            try:
                yield from group.supervise(body(group))
            except ValueError as exc:
                seen["error"] = exc
                seen["alive"] = group.alive()
                seen["at"] = env.now

        env.process(caller())
        env.run()
        assert str(seen["error"]) == "boom"
        # Every sibling had unwound when the caller saw the error.
        assert seen["alive"] == []
        assert seen["at"] < 1.0

    def test_closing_the_caller_mid_phase_unwinds_without_yielding(self):
        env = Environment()
        group = TaskGroup(env)

        def body(group):
            group.spawn(_worker(env, 10.0), name="slow")
            yield from ()

        caller = group.supervise(body(group))
        next(caller)  # waiting on the phase runner
        env.run(until=0.5)
        # Draining here would yield inside close(): a RuntimeError.
        caller.close()

    def test_check_raises_the_recorded_failure(self):
        env = Environment()
        group = TaskGroup(env)
        group.check()
        failure = ValueError("boom")
        group.note_failure(failure)
        with pytest.raises(ValueError, match="boom"):
            group.check()

    def test_only_named_tasks_record_results(self):
        env = Environment()
        group = TaskGroup(env)
        unnamed = group.spawn(_worker(env, 0.1, result="a"))
        group.spawn(_worker(env, 0.1, result="b"), name="named")
        env.run()
        assert group.results == {"named": "b"}
        # The waiter of an unnamed task takes its value from the process.
        assert unnamed.value == "a"

    def test_finished_tasks_leave_the_group(self):
        env = Environment()
        group = TaskGroup(env)
        group.spawn(_worker(env, 0.1))
        slow = group.spawn(_worker(env, 0.3))
        env.run(until=0.2)
        assert group.alive() == [slow]
        env.run()
        assert group.alive() == []
