"""Durable phase checkpoints and recovery accounting.

A :class:`PhaseCheckpoint` records, after each supervised phase, which
chunks live where and how far they have progressed — optionally with
host-staged copies of the chunk payloads themselves.  Checkpoints are
host-side state: they survive any number of GPU failures, which is what
makes mid-sort re-planning possible (the supervisor rebuilds the device
layout from the last checkpoint with payloads instead of restarting
from the source buffer).

``kind`` encodes how much a checkpoint can restore:

* ``"layout"`` — metadata only (GPU ids, chunk geometry).  Replanning
  past it re-fetches from the source.
* ``"sorted"`` — payloads are the per-GPU *sorted runs* after the local
  sort.  Replanning re-uploads and re-merges them on the survivors.
* ``"merged"`` — payloads are the globally merged chunks; their
  concatenation in slot order *is* the sorted output, so any later
  failure resolves without touching a GPU again.
* ``"runs"`` — HET sort: payloads are the host-resident sorted chunk
  runs flushed so far; unflushed chunks redistribute over survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class PhaseCheckpoint:
    """State of a supervised sort after one completed phase."""

    phase: str
    #: Simulated time the checkpoint was written.
    at: float
    #: GPUs carrying chunks when the checkpoint was taken.
    gpu_ids: Tuple[int, ...]
    #: Elements per device chunk at that point.
    chunk: int
    #: Restorability class (see module docstring).
    kind: str = "layout"
    #: Host-staged chunk copies, slot-ordered; ``None`` for metadata-only.
    payloads: Optional[Tuple[np.ndarray, ...]] = None
    #: Key-value sorts: the staged payload values, one per ``payloads``
    #: entry; ``None`` for keys only.
    values: Optional[Tuple[np.ndarray, ...]] = None

    @property
    def restorable(self) -> bool:
        """Whether this checkpoint carries payloads to rebuild from."""
        return self.payloads is not None


@dataclass
class RecoveryStats:
    """Counters the supervisor accumulates across one sort run."""

    replans: int = 0
    checkpoints: int = 0
    checkpoints_restored: int = 0
    speculations: int = 0
    speculative_wins: int = 0
    #: Phases that fully completed (and checkpointed), execution order.
    completed_phases: Tuple[str, ...] = field(default=())

    def completed(self, phase: str) -> None:
        self.completed_phases = self.completed_phases + (phase,)
