"""Concurrent kernels' NumPy work on spare cores.

In the P2P sort every GPU sorts its chunk at once, and every pivot swap
ends in two GPU-local merges that run at once (Section 5.2).  Their
functional effects are NumPy sorts, which release the GIL, so a kernel
given temp storage (``scratch=``, the auxiliary buffer the real sort
already holds) computes its result there on a worker thread while the
simulation runs on.  :func:`launch` submits the work when the kernel
launches; at the kernel's simulated completion :meth:`Job.close` joins
it and the kernel copies the result into its target.  The functional
effect therefore lands at the same simulated instant, with the same
bytes, as an inline one.

Exactness rules:

* A job is registered in ``machine.in_flight`` under every array it
  reads or writes.  A functional write that overlaps its input or its
  scratch (:func:`~repro.runtime.memcpy.before_write`) joins it and
  marks it *stale*; a copy landing that reads its scratch joins it.  A
  stale job's kernel computes its effect inline at completion, from the
  target's bytes at that instant, as an inline kernel does.
* A job the main thread needs before a worker started it is dropped
  and computed inline instead.  While it waits on a running one, the
  main thread runs the same machine's other queued jobs itself, so
  both threads stay busy through a phase of concurrent kernels.
* An interrupted or faulted kernel closes (joins and discards) its job
  in a ``finally``, so no worker touches its buffers afterwards.
* Workers run NumPy calls only, never a ``repro`` function: profilers
  that wrap the ``repro`` functions keep one unsynchronised stack.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import ThreadPoolExecutor

    from repro.runtime.context import Machine

#: Threads that compute kernels' NumPy work, the simulation's own
#: included: one per CPU this process may run on, at most eight (the
#: P2P sort's widest set of concurrent kernels).  With one, every
#: kernel computes its effect inline.
THREADS = min(len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
              8)

#: Kernels of fewer keys compute inline: handing small work to a
#: worker costs more in GIL hand-offs than the overlap gains.
MIN_KEYS = 1 << 18

_pool: Optional["ThreadPoolExecutor"] = None


def _executor() -> "ThreadPoolExecutor":
    global _pool
    if _pool is None:
        # Imported here: runs that never offload do not pay for it.
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(max_workers=max(THREADS - 1, 1),
                                   thread_name_prefix="repro-kernel")
    return _pool


class Job:
    """One kernel's functional effect, computed into its scratch."""

    __slots__ = ("machine", "arrays", "scratch", "work", "future",
                 "computed", "stale", "owners")

    def __init__(self, machine: "Machine", arrays, scratch, work):
        self.machine = machine
        #: Every array the work reads or writes; ``scratch`` the ones
        #: it writes, which hold the result.
        self.arrays = arrays
        self.scratch = scratch
        self.work = work
        self.future = None
        #: The result is in the scratch (a worker or the main thread
        #: ran the work to the end).
        self.computed = False
        self.stale = False
        self.owners = {id(a if a.base is None else a.base) for a in arrays}

    @property
    def ready(self) -> bool:
        """Whether the scratch holds the kernel's effect."""
        return self.computed and not self.stale

    def _claim(self) -> None:
        """Make sure no worker runs or will run the work."""
        if self.future.cancel():
            return
        while not self.future.done() and self._run_another():
            pass
        self.future.result()
        self.computed = True

    def _run_another(self) -> bool:
        """Run on this thread one of the machine's jobs still queued
        (neither started by a worker nor dropped); ``False`` when there
        is none."""
        for entries in self.machine.in_flight.values():
            for job in entries:
                if (isinstance(job, Job) and not job.future.cancelled()
                        and job.future.cancel()):
                    job.work()
                    job.computed = True
                    return True
        return False

    def on_write(self, machine: "Machine", target: np.ndarray) -> None:
        """A functional write to ``target`` is about to happen."""
        if any(np.may_share_memory(a, target) for a in self.arrays):
            self._claim()
            self.stale = True

    def on_read(self, source: np.ndarray) -> None:
        """A copy is about to read ``source``."""
        if any(np.may_share_memory(s, source) for s in self.scratch):
            self._claim()

    def close(self) -> None:
        """Join the job and unregister it; :attr:`ready` tells whether
        its result counts."""
        try:
            self._claim()
        finally:
            in_flight = self.machine.in_flight
            for owner in self.owners:
                entries = in_flight.get(owner)
                if entries is not None:
                    entries.discard(self)
                    if not entries:
                        del in_flight[owner]


def takes(keys: int) -> bool:
    """Whether a kernel of ``keys`` keys given scratch computes on a
    worker."""
    return THREADS > 1 and keys >= MIN_KEYS


def launch(machine: "Machine", reads, writes, work) -> Job:
    """Submit ``work``, which reads the arrays ``reads`` and writes its
    result to ``writes``, and register it on ``machine``."""
    job = Job(machine, tuple(reads) + tuple(writes), tuple(writes), work)
    in_flight = machine.in_flight
    for owner in job.owners:
        entries = in_flight.get(owner)
        if entries is None:
            entries = in_flight[owner] = set()
        entries.add(job)
    job.future = _executor().submit(work)
    return job
