"""Cluster-tier exchange bookkeeping for the hierarchical sort.

The :func:`~repro.sort.hier.hier_sort` epoch driver runs its
cross-node all-to-all as a ledger of *contributions*: one sorted run
per input slice, held in one node's host memory, partitioned by the
epoch's fixed splitters into per-range segments.  Every segment whose
range is owned by another node must be delivered over the fabric; the
ledger records which ``(contribution, range)`` pairs have landed, so a
mid-exchange node loss replays only what the death actually
invalidated:

* segments already delivered **between surviving nodes** stay durable
  (their payload lives in the destination's host memory);
* contributions *held by* the dead node are dropped — their run data is
  gone — and their input slices come back as repair shards for the
  survivors to re-sort against the same splitters;
* ranges *owned by* the dead node are reassigned to survivors and
  their delivered marks cleared — the payloads died with the owner's
  inbox.

Splitters are fixed for the lifetime of one ledger, which is what makes
completed deliveries durable; a death before any exchange work simply
builds a fresh ledger over the survivors instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import SortError
from repro.runtime.buffer import HostBuffer


@dataclass
class Contribution:
    """One sorted run of one input slice, held by one node."""

    cid: int
    #: Node whose host memory holds the run (dies with the node).
    node: int
    #: Half-open slice of the global input this run was sorted from
    #: (what a repair must re-sort if the holder dies).
    src_start: int
    src_stop: int
    #: Host buffer holding the padded run; the run itself is the
    #: buffer's first ``size`` elements.
    host: Optional[HostBuffer]
    size: int
    #: ``searchsorted(run, splitters)`` — per-range segment bounds.
    bounds: np.ndarray

    @property
    def run(self) -> np.ndarray:
        return self.host.data[:self.size]

    def segment(self, rng: int, num_ranges: int) -> Tuple[int, int]:
        """Element bounds of this run's segment for range ``rng``."""
        lo = 0 if rng == 0 else int(self.bounds[rng - 1])
        hi = self.size if rng == num_ranges - 1 else int(self.bounds[rng])
        return lo, hi


@dataclass
class ExchangeLedger:
    """Delivery state of one exchange epoch (fixed splitters)."""

    #: The epoch's fixed splitters (``num_ranges - 1`` of them).
    splitters: np.ndarray
    #: Alive nodes at ledger-build time, in node order; range ``j`` is
    #: initially owned by ``nodes[j]``.
    nodes: Tuple[int, ...]
    contributions: List[Contribution] = field(default_factory=list)
    #: range -> owning node (reassigned when an owner dies).
    range_owner: Dict[int, int] = field(default_factory=dict)
    #: ``(cid, range)`` pairs whose segment landed in the owner's inbox.
    delivered: Set[Tuple[int, int]] = field(default_factory=set)
    #: ``(cid, range)`` -> received payload buffer (in the owner's
    #: host memory).
    inbox: Dict[Tuple[int, int], HostBuffer] = field(default_factory=dict)
    #: range -> merged output (host-side; survives only while its
    #: owner does).
    merged: Dict[int, np.ndarray] = field(default_factory=dict)
    _next_cid: int = 0

    def __post_init__(self):
        if not self.range_owner:
            self.range_owner = {j: node for j, node in enumerate(self.nodes)}

    @property
    def num_ranges(self) -> int:
        return len(self.nodes)

    def add_contribution(self, node: int, src_start: int, src_stop: int,
                         host: HostBuffer, size: int) -> Contribution:
        """Register a freshly sorted run held by ``node``."""
        contribution = Contribution(
            cid=self._next_cid, node=node, src_start=src_start,
            src_stop=src_stop, host=host, size=size,
            bounds=np.searchsorted(host.data[:size], self.splitters,
                                   side="left"))
        self._next_cid += 1
        self.contributions.append(contribution)
        return contribution

    def pending(self) -> List[Tuple[Contribution, int]]:
        """Undelivered cross-node ``(contribution, range)`` pairs."""
        pairs = []
        for contribution in self.contributions:
            for rng in range(self.num_ranges):
                if self.range_owner[rng] == contribution.node:
                    continue
                lo, hi = contribution.segment(rng, self.num_ranges)
                if hi > lo and (contribution.cid, rng) not in self.delivered:
                    pairs.append((contribution, rng))
        return pairs

    def unmerged_ranges(self) -> List[int]:
        return [rng for rng in range(self.num_ranges)
                if rng not in self.merged]

    def drop_node(self, node: int,
                  survivors: Sequence[int]) -> List[Tuple[int, int]]:
        """Remove a dead node from the ledger; returns repair slices.

        Contributions held by ``node`` are dropped (with every delivered
        mark and inbox payload they produced) and their input slices
        returned for re-sorting on the survivors; ranges owned by
        ``node`` are reassigned round-robin over ``survivors`` and
        their delivered marks and merged outputs cleared.
        """
        alive = [k for k in survivors if k != node]
        if not alive:
            raise SortError(
                f"node {node} died and no cluster nodes survive it")
        repairs: List[Tuple[int, int]] = []
        kept: List[Contribution] = []
        for contribution in self.contributions:
            if contribution.node == node:
                repairs.append((contribution.src_start,
                                contribution.src_stop))
                for rng in range(self.num_ranges):
                    self.delivered.discard((contribution.cid, rng))
                    self.inbox.pop((contribution.cid, rng), None)
            else:
                kept.append(contribution)
        self.contributions = kept
        orphaned = sorted(rng for rng, owner in self.range_owner.items()
                          if owner == node)
        for i, rng in enumerate(orphaned):
            self.range_owner[rng] = alive[i % len(alive)]
            self.merged.pop(rng, None)
            for contribution in self.contributions:
                self.delivered.discard((contribution.cid, rng))
                self.inbox.pop((contribution.cid, rng), None)
        return repairs

    def merge_parts(self, rng: int) -> List[np.ndarray]:
        """The sorted parts range ``rng``'s owner merges, in cid order.

        Local segments are read straight from the owner's runs; remote
        ones from the delivered inbox payloads.
        """
        owner = self.range_owner[rng]
        parts: List[np.ndarray] = []
        for contribution in sorted(self.contributions,
                                   key=lambda c: c.cid):
            lo, hi = contribution.segment(rng, self.num_ranges)
            if hi <= lo:
                # Empty segments are never pending, so never delivered.
                continue
            if contribution.node == owner:
                parts.append(contribution.run[lo:hi])
            elif (contribution.cid, rng) in self.delivered:
                parts.append(self.inbox[(contribution.cid, rng)].data)
            else:
                raise SortError(
                    f"range {rng} merge scheduled before contribution "
                    f"{contribution.cid}'s segment was delivered")
        return parts
