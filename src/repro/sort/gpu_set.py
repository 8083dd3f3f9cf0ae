"""GPU set selection and ordering (Section 5.4).

Two decisions precede a multi-GPU sort:

* **Which GPUs** — the set with the best aggregate transfer
  performance.  On the DGX A100, pair (0, 2) beats (0, 1) because
  (0, 1) share one PCIe switch (Section 6 intro).
* **In what order** (P2P sort only) — the order fixes which pairs swap
  in each merge stage: set ``(i, j, k, l)`` merges ``(i, j)`` and
  ``(k, l)`` pairwise and swaps between ``(j, k)`` and ``(i, l)``
  globally.  On the AC922, ``(0, 1, 2, 3)`` beats ``(0, 2, 1, 3)``
  because the pairwise merges then run over NVLink.

:func:`preferred_gpu_ids` returns the paper's choices;
:func:`best_gpu_order_for_p2p` searches orders by a static cost model
over the topology (bottleneck bandwidth of every stage's swap pairs).
Interestingly, on the DELTA topology the search finds the order
``(1, 0, 2, 3)``, whose global-stage pairs (1, 3) and (0, 2) are both
NVLink-connected — an all-NVLink merge phase the paper's default order
``(0, 1, 2, 3)`` misses; ``benchmarks/bench_ablation_gpu_order.py``
quantifies the difference.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import SortError
from repro.hw.systems import SystemSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import Machine


def preferred_gpu_ids(spec: SystemSpec, count: int) -> Tuple[int, ...]:
    """The paper-faithful ordered GPU set for ``count`` GPUs."""
    return spec.preferred_gpu_set(count)


def _pair_bandwidth(spec: SystemSpec, a: int, b: int,
                    cache: Dict[Tuple[int, int], float]) -> float:
    """Effective P2P bandwidth between two GPUs (one direction)."""
    key = (min(a, b), max(a, b))
    if key not in cache:
        route = spec.topology.route(spec.gpu_name(a), spec.gpu_name(b))
        bandwidth = route.bottleneck
        if route.host_traversing:
            bandwidth *= spec.p2p_traverse_efficiency
        cache[key] = bandwidth
    return cache[key]


def _stage_pairs(order: Sequence[int]) -> List[List[Tuple[int, int]]]:
    """Swap pairs of every merge-stage level for an ordered GPU set.

    Level ``s`` (block size ``2^(s+1)``) swaps mirrored pairs within
    each block: for a block ``(i, j, k, l)`` the pairs are ``(j, k)``
    and ``(i, l)``.
    """
    g = len(order)
    levels: List[List[Tuple[int, int]]] = []
    size = 2
    while size <= g:
        pairs: List[Tuple[int, int]] = []
        for block in range(0, g, size):
            half = size // 2
            for m in range(half):
                pairs.append((order[block + half - 1 - m],
                              order[block + half + m]))
        levels.append(pairs)
        size *= 2
    return levels


def p2p_order_cost(spec: SystemSpec, order: Sequence[int]) -> float:
    """Static cost of one P2P merge order: expected stage transfer time.

    Per level, each pair swaps (in expectation, for uniform data) half
    a chunk in both directions concurrently; the level's cost is its
    slowest pair.  Lower levels run twice (before and after each global
    stage), which the weighting reflects.
    """
    g = len(order)
    if g & (g - 1) or g < 2:
        raise SortError(f"order must have power-of-two length >= 2, got {g}")
    cache: Dict[Tuple[int, int], float] = {}
    levels = _stage_pairs(order)
    cost = 0.0
    for level, pairs in enumerate(levels):
        slowest = max(1.0 / _pair_bandwidth(spec, a, b, cache)
                      for a, b in pairs)
        # Level 0 (pairwise) executes 2^(k-1) times across the
        # recursion, level k-1 (global) once.
        executions = 2 ** (len(levels) - 1 - level)
        cost += executions * slowest
    return cost


def best_gpu_order_for_p2p(spec: SystemSpec,
                           gpu_ids: Sequence[int]) -> Tuple[int, ...]:
    """The minimum-cost ordering of ``gpu_ids`` for the P2P merge.

    Exhaustive search modulo the symmetries that do not change the swap
    pairs (within-pair order at the lowest level).  Falls back to the
    given order for a single GPU.
    """
    ids = tuple(gpu_ids)
    g = len(ids)
    if g == 1:
        return ids
    if g & (g - 1):
        raise SortError(f"P2P sort needs a power-of-two GPU count, got {g}")
    best_order = ids
    best_cost = p2p_order_cost(spec, ids)
    seen = set()
    for perm in itertools.permutations(ids):
        # Reversing the whole order mirrors every stage's pairs, which
        # are bidirectional anyway — prune that one symmetry.
        if perm[::-1] in seen:
            continue
        seen.add(perm)
        cost = p2p_order_cost(spec, perm)
        if cost < best_cost - 1e-15:
            best_cost = cost
            best_order = perm
    return best_order


def rank_gpu_sets(spec: SystemSpec, count: int) -> List[Tuple[Tuple[int, ...], float]]:
    """All size-``count`` GPU subsets ranked by CPU-GPU transfer cost.

    The cost approximates the parallel-copy phase: every chosen GPU
    copies one chunk, shared hops divide their capacity among the
    routes crossing them.  Lower is better; the first entry is the best
    set.
    """
    if not 1 <= count <= spec.num_gpus:
        raise SortError(
            f"count must be in [1, {spec.num_gpus}], got {count}")
    results = []
    for subset in itertools.combinations(range(spec.num_gpus), count):
        usage: Dict[int, List[float]] = {}
        routes = []
        for gpu_id in subset:
            route = spec.topology.route("cpu0", spec.gpu_name(gpu_id))
            routes.append(route)
            for resource, _direction in route.hops:
                usage.setdefault(id(resource), []).append(
                    resource.raw_capacity(_direction))
        cost = 0.0
        for route in routes:
            per_hop = []
            for resource, direction in route.hops:
                sharers = len(usage[id(resource)])
                per_hop.append(resource.raw_capacity(direction) / sharers)
            cost = max(cost, 1.0 / min(per_hop))
        results.append((subset, cost))
    results.sort(key=lambda item: (item[1], item[0]))
    return results


def best_gpu_set(spec: SystemSpec, count: int,
                 order_for_p2p: bool = False) -> Tuple[int, ...]:
    """Pick (and optionally order) the best ``count``-GPU set."""
    subset = rank_gpu_sets(spec, count)[0][0]
    if order_for_p2p and count > 1 and not (count & (count - 1)):
        return best_gpu_order_for_p2p(spec, subset)
    return subset


def power_of_two_floor(count: int) -> int:
    """The largest power of two not above ``count >= 1``."""
    return 1 << (count.bit_length() - 1)


def surviving_gpu_ids(
        machine: "Machine",
        gpu_ids: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Split an ordered GPU set into ``(survivors, excluded)``.

    A GPU is excluded when the machine's fault injector reports it hard-
    failed, or when its active straggler slowdown is at least the
    resilience policy's ``straggler_exclude_factor`` (a device that slow
    would bottleneck every phase barrier; re-planning the chunks over
    the healthy devices is faster).  Order is preserved — P2P merge
    orders stay meaningful.  On a machine without faults everything
    survives.
    """
    faults = getattr(machine, "faults", None)
    if faults is None:
        return tuple(gpu_ids), ()
    threshold = machine.resilience.straggler_exclude_factor
    failed = faults.failed_gpu_ids()
    excluded = tuple(
        gpu for gpu in gpu_ids
        if gpu in failed or faults.straggler_factor(gpu) >= threshold)
    survivors = tuple(gpu for gpu in gpu_ids if gpu not in excluded)
    return survivors, excluded


def plan_gpu_set(
        machine: "Machine", gpu_ids: Optional[Sequence[int]],
        power_of_two: bool) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The ordered GPU set a sort runs on, and the GPUs it excludes.

    ``gpu_ids`` defaults to the platform's paper-faithful set of every
    GPU (the largest power of two of them with ``power_of_two``).  An
    explicit set must be duplicate-free and, with ``power_of_two``, of
    power-of-two size.  GPUs :func:`surviving_gpu_ids` excludes are
    dropped; with ``power_of_two`` the run keeps the largest
    power-of-two prefix of the survivors (the P2P merge needs ``2^k``
    chunks; order preserved).
    """
    if gpu_ids is None:
        count = machine.num_gpus
        ids = machine.spec.preferred_gpu_set(
            power_of_two_floor(count) if power_of_two else count)
    else:
        ids = tuple(gpu_ids)
    g = len(ids)
    if len(set(ids)) != g:
        raise SortError(f"duplicate GPU ids in {ids}")
    if power_of_two and g & (g - 1):
        raise SortError(
            f"the P2P merge needs a power-of-two GPU count, got {g}")
    survivors, excluded = surviving_gpu_ids(machine, ids)
    if not survivors:
        raise SortError(
            f"no healthy GPUs left in {ids}: all failed or "
            "straggling past the exclusion factor")
    if power_of_two:
        survivors = survivors[:power_of_two_floor(len(survivors))]
    return tuple(survivors), excluded
