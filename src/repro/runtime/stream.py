"""CUDA-stream-like serial work queues.

A :class:`Stream` serializes the operations submitted to it while
different streams proceed concurrently — the semantics the paper's
implementations rely on to overlap copies with compute (Sections 5.2,
5.3).  Implementation: each submission chains on the completion of the
previous one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.engine import Event, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import Machine


class Stream:
    """A FIFO queue of simulation processes."""

    def __init__(self, machine: "Machine", name: str = ""):
        self.machine = machine
        self.name = name or f"stream{id(self):x}"
        self._tail: Optional[Event] = None
        self._depth = 0

    def submit(self, operation: Generator, spawn=None) -> Process:
        """Enqueue an operation; it starts when the previous one ends.

        Returns the process of the operation (an event; its value is
        the operation's return value).  ``spawn`` starts that process
        (default: ``env.process``), so a supervised phase can own it.
        """
        previous = self._tail
        self._depth += 1
        obs = self.machine.obs
        if obs is not None:
            obs.stream_submitted(self.name, self._depth,
                                 self.machine.env.now)
        process = (spawn or self.machine.env.process)(
            self._run_after(previous, operation))
        self._tail = process
        return process

    def _run_after(self, previous: Optional[Event], operation: Generator):
        if previous is not None:
            yield previous
        try:
            result = yield from operation
        finally:
            self._depth -= 1
            obs = self.machine.obs
            if obs is not None:
                obs.stream_drained(self.name, self._depth)
        return result

    def synchronize(self) -> Event:
        """Event that succeeds when everything submitted so far is done."""
        if self._tail is not None:
            return self._tail
        done = self.machine.env.event()
        done.succeed()
        return done
