"""Interconnect topology graph and copy-path routing.

A :class:`Topology` is an undirected multigraph: nodes are CPUs (NUMA
nodes), GPUs and switches (PCIe switches, NVSwitch); edges carry a
shared :class:`~repro.sim.resources.Resource` plus the link kind.  A
node may own a memory resource (host DRAM for CPU nodes, HBM for GPU
nodes) that every copy starting or ending at the node crosses.

Routing follows CUDA semantics rather than generic graph routing:

* GPUs never forward traffic for other GPUs — multi-hop P2P routing
  exists only as future work in the paper (Section 7), so GPU nodes are
  endpoints, never transit nodes.
* A P2P copy uses the direct link (or switch fabric) when one exists;
  otherwise it is staged over the host side, exactly like
  ``cudaMemcpyPeer`` on systems without P2P access.
"""

from __future__ import annotations

import enum
import heapq
import time
from dataclasses import dataclass, field
from typing import (Collection, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.errors import TopologyError
from repro.hw.links import LinkKind
from repro.sim.resources import Direction, Resource

Hop = Tuple[Resource, Direction]

#: Telemetry tier of links inside one machine (NVLink, PCIe, CPU buses).
TIER_INTRA = "intra"
#: Telemetry tier of the cluster fabric (NICs, InfiniBand, switches).
TIER_INTER = "inter"


class NodeKind(enum.Enum):
    """Role of a node in the interconnect graph."""

    CPU = "cpu"
    GPU = "gpu"
    SWITCH = "switch"


@dataclass
class TopologyNode:
    """One vertex of the interconnect graph."""

    name: str
    kind: NodeKind
    #: Memory subsystem of this node, if it has addressable memory.
    memory: Optional[Resource] = None
    #: Arbitrary extras (e.g. NUMA node index).
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def can_transit(self) -> bool:
        """Whether copies may pass *through* this node."""
        return self.kind is not NodeKind.GPU

    def __repr__(self) -> str:
        return f"<TopologyNode {self.name} ({self.kind.value})>"


@dataclass(frozen=True)
class Edge:
    """One undirected link between two nodes.

    Travelling ``a -> b`` crosses the resource in ``Direction.FWD``;
    ``b -> a`` crosses it in ``Direction.REV``.
    """

    a: str
    b: str
    resource: Resource
    kind: LinkKind

    def other(self, node: str) -> str:
        """The opposite endpoint of ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"{node} is not an endpoint of edge {self}")

    def direction_from(self, node: str) -> Direction:
        """Resource direction when leaving ``node`` over this edge."""
        if node == self.a:
            return Direction.FWD
        if node == self.b:
            return Direction.REV
        raise TopologyError(f"{node} is not an endpoint of edge {self}")


@dataclass(frozen=True)
class Route:
    """A resolved copy path with metadata the runtime needs."""

    src: str
    dst: str
    hops: Tuple[Hop, ...]
    #: Link kinds crossed, in order (memory resources excluded).
    link_kinds: Tuple[LinkKind, ...]
    #: Whether the path is staged through a CPU node between two GPUs.
    host_traversing: bool
    #: Minimum static capacity along the path (forward direction of travel).
    bottleneck: float
    #: Total one-way traversal latency of the path (sum over hops),
    #: pre-computed once so per-copy setup stays O(1).
    latency_s: float = 0.0


class RouteTable:
    """Precomputed route cache with hit statistics.

    Routes are memoized by ``(src, dst, avoid)`` — the travel direction
    is implied by the ordered pair, so ``(a, b)`` and ``(b, a)`` are
    distinct entries.  The table exists because cluster-scale sorts
    resolve the same handful of paths millions of times: a cache hit is
    one dict probe, a miss pays the Dijkstra walk (its wall time is
    accounted in :attr:`miss_wall_s`, which the ``--profile`` bench
    breakdown reads to prove route lookup is off the hot path).

    Link up/down events from :mod:`repro.faults` call
    :meth:`invalidate` with the links they touched.  A route never reads
    link state — the resilient runtime overlays down links through
    ``avoid`` sets — so no entry is ever wrong; invalidation keeps the
    table from pinning Route objects for dead link states forever, and
    drops only the entries the changed links concern.
    """

    __slots__ = ("_table", "hits", "misses", "invalidations", "miss_wall_s")

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, str, Optional[frozenset]], Route] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.miss_wall_s = 0.0

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, key: Tuple[str, str, Optional[frozenset]]
               ) -> Optional[Route]:
        """The cached route for ``key``, counting the hit/miss."""
        route = self._table.get(key)
        if route is not None:
            self.hits += 1
        else:
            self.misses += 1
        return route

    def store(self, key: Tuple[str, str, Optional[frozenset]],
              route: Route) -> None:
        self._table[key] = route

    def invalidate(self, resources: Optional[Collection[int]] = None,
                   restored: bool = False) -> None:
        """Drop cached routes after a topology or link-state change.

        Without ``resources`` (the ``id()`` of link resources) every
        route goes.  With them, a link that went down drops the routes
        whose hops cross one of them, and a link that came back
        (``restored``) drops the routes whose avoid set names one: the
        detours around it.  Every other entry stays a cache hit.

        A flush of an already-empty table is free and not counted, so
        the ``invalidations`` stat measures real cache churn rather
        than topology construction (every ``add_edge`` invalidates).
        """
        table = self._table
        if not table:
            return
        self.invalidations += 1
        if resources is None:
            table.clear()
            return
        if restored:
            stale = [key for key in table
                     if key[2] is not None
                     and not key[2].isdisjoint(resources)]
        else:
            stale = [key for key, route in table.items()
                     if any(id(resource) in resources
                            for resource, _d in route.hops)]
        for key in stale:
            del table[key]

    def stats(self) -> Dict[str, float]:
        """Counters for bench records and the ``--profile`` breakdown."""
        total = self.hits + self.misses
        return {
            "routes_cached": len(self._table),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "invalidations": self.invalidations,
            "miss_wall_s": self.miss_wall_s,
        }


class Topology:
    """The interconnect graph of one machine."""

    def __init__(self, name: str = "machine"):
        self.name = name
        self._nodes: Dict[str, TopologyNode] = {}
        self._edges: List[Edge] = []
        self._adjacency: Dict[str, List[Edge]] = {}
        self.routes = RouteTable()
        #: Telemetry tier per resource *name*; anything absent is
        #: :data:`TIER_INTRA`.  Cluster builders tag fabric links
        #: :data:`TIER_INTER` so observability can aggregate per tier.
        self.tiers: Dict[str, str] = {}

    # -- construction ------------------------------------------------------
    def add_node(
        self,
        name: str,
        kind: NodeKind,
        memory: Optional[Resource] = None,
        **attrs: object,
    ) -> TopologyNode:
        """Add a vertex; returns the created node."""
        if name in self._nodes:
            raise TopologyError(f"duplicate node {name!r}")
        node = TopologyNode(name=name, kind=kind, memory=memory, attrs=dict(attrs))
        self._nodes[name] = node
        self._adjacency[name] = []
        return node

    def add_edge(self, a: str, b: str, resource: Resource,
                 kind: LinkKind, tier: str = TIER_INTRA) -> Edge:
        """Connect two existing nodes with a shared resource."""
        for endpoint in (a, b):
            if endpoint not in self._nodes:
                raise TopologyError(f"unknown node {endpoint!r}")
        if a == b:
            raise TopologyError(f"self-loop on {a!r}")
        edge = Edge(a=a, b=b, resource=resource, kind=kind)
        self._edges.append(edge)
        self._adjacency[a].append(edge)
        self._adjacency[b].append(edge)
        if tier != TIER_INTRA:
            self.tiers[resource.name] = tier
        self.routes.invalidate()
        return edge

    def invalidate_routes(self, resources: Optional[Iterable[Resource]] = None,
                          restored: bool = False) -> None:
        """Drop cached routes after a link-state change.

        The fault injector calls this on every link down *and* up
        window edge with the links concerned (see
        :meth:`RouteTable.invalidate`); the next :meth:`route` call
        recomputes on demand.
        """
        self.routes.invalidate(
            None if resources is None else {id(r) for r in resources},
            restored)

    def tier_of(self, resource_name: str) -> str:
        """Telemetry tier of a link resource (by name)."""
        return self.tiers.get(resource_name, TIER_INTRA)

    # -- lookups -----------------------------------------------------------
    def node(self, name: str) -> TopologyNode:
        """Node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    @property
    def nodes(self) -> List[TopologyNode]:
        """All nodes in insertion order."""
        return list(self._nodes.values())

    @property
    def edges(self) -> List[Edge]:
        """All edges in insertion order."""
        return list(self._edges)

    def nodes_of_kind(self, kind: NodeKind) -> List[TopologyNode]:
        """All nodes of one kind, in insertion order."""
        return [n for n in self._nodes.values() if n.kind is kind]

    def edges_between(self, a: str, b: str) -> List[Edge]:
        """All direct edges between two nodes."""
        return [e for e in self._adjacency.get(a, ())
                if e.other(a) == b]

    def has_direct_p2p(self, gpu_a: str, gpu_b: str) -> bool:
        """Whether two GPUs can copy without crossing the host side.

        True if they share a direct P2P-capable edge or both attach to a
        common switch over P2P-capable links (NVSwitch).
        """
        for edge in self.edges_between(gpu_a, gpu_b):
            if edge.kind.is_p2p_capable:
                return True
        switches_a = {e.other(gpu_a) for e in self._adjacency[gpu_a]
                      if e.kind.is_p2p_capable
                      and self._nodes[e.other(gpu_a)].kind is NodeKind.SWITCH}
        switches_b = {e.other(gpu_b) for e in self._adjacency[gpu_b]
                      if e.kind.is_p2p_capable
                      and self._nodes[e.other(gpu_b)].kind is NodeKind.SWITCH}
        return bool(switches_a & switches_b)

    def gpu_relay_path(self, src: str, dst: str) -> Optional[List[str]]:
        """A widest GPU-relayed P2P path from ``src`` to ``dst``.

        Multi-hop P2P routing (the paper's Section 7 future work, after
        Paul et al. [55]): instead of staging a copy through the host,
        forward it through intermediate GPUs over direct P2P links.
        Returns the node sequence ``[src, relay..., dst]`` maximizing
        the bottleneck P2P bandwidth (ties broken by hop count), or
        ``None`` when no all-P2P path with at least one relay helps
        (e.g. a direct link already exists, or a GPU is unreachable
        over P2P links alone).
        """
        if self.has_direct_p2p(src, dst):
            return None
        gpus = [n.name for n in self.nodes_of_kind(NodeKind.GPU)]
        # Build the direct-P2P neighbour map with per-edge bandwidth.
        bandwidth: Dict[Tuple[str, str], float] = {}
        for a in gpus:
            for edge in self._adjacency[a]:
                if not edge.kind.is_p2p_capable:
                    continue
                b = edge.other(a)
                if self._nodes[b].kind is NodeKind.GPU:
                    cap = edge.resource.raw_capacity(edge.direction_from(a))
                    key = (a, b)
                    bandwidth[key] = max(bandwidth.get(key, 0.0), cap)
        # Widest-path Dijkstra over GPU nodes only.
        best: Dict[str, Tuple[float, int]] = {src: (float("inf"), 0)}
        parent: Dict[str, str] = {}
        heap: List[Tuple[float, int, str]] = [(-float("inf"), 0, src)]
        settled: set = set()
        while heap:
            neg_width, hops, here = heapq.heappop(heap)
            if here in settled:
                continue
            settled.add(here)
            if here == dst:
                break
            width = -neg_width
            for (a, b), cap in bandwidth.items():
                if a != here or b in settled:
                    continue
                cand = (min(width, cap), hops + 1)
                known = best.get(b)
                if known is None or cand[0] > known[0] or (
                        cand[0] == known[0] and cand[1] < known[1]):
                    best[b] = cand
                    parent[b] = here
                    heapq.heappush(heap, (-cand[0], cand[1], b))
        if dst not in parent:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    # -- routing -----------------------------------------------------------
    def route(self, src: str, dst: str,
              avoid: Optional[frozenset] = None) -> Route:
        """Resolve the copy path from ``src`` to ``dst``.

        The path is the hop-minimal one (ties broken by the largest
        bottleneck bandwidth, then by construction order for
        determinism), never transiting GPU nodes.  Memory resources of
        the endpoints are prepended/appended: the source memory is read
        (``FWD``), the destination memory is written (``REV``).

        ``avoid`` is a frozenset of ``id(resource)`` values whose edges
        must not be crossed (the resilient runtime routes around links
        the fault injector took down); endpoint memories cannot be
        avoided.  Raises :class:`~repro.errors.TopologyError` when no
        path survives the exclusion.
        """
        if avoid is not None and not avoid:
            avoid = None
        key = (src, dst, avoid)
        cached = self.routes.lookup(key)
        if cached is not None:
            return cached
        began = time.perf_counter()
        if src == dst:
            raise TopologyError(f"source and destination are both {src!r}")
        src_node = self.node(src)
        dst_node = self.node(dst)

        edge_path = self._shortest_edge_path(
            src, dst, avoid, allowed=self._route_scope(src, dst))
        hops: List[Hop] = []
        if src_node.memory is not None:
            hops.append((src_node.memory, Direction.FWD))
        here = src
        kinds: List[LinkKind] = []
        host_traversing = False
        for edge in edge_path:
            hops.append((edge.resource, edge.direction_from(here)))
            kinds.append(edge.kind)
            here = edge.other(here)
            if (here != dst
                    and self._nodes[here].kind is NodeKind.CPU
                    and src_node.kind is NodeKind.GPU
                    and dst_node.kind is NodeKind.GPU):
                host_traversing = True
        if dst_node.memory is not None:
            hops.append((dst_node.memory, Direction.REV))

        bottleneck = min(
            (edge.resource.raw_capacity(edge.direction_from(a)))
            for edge, a in zip(edge_path, self._walk_nodes(src, edge_path))
        )
        route = Route(src=src, dst=dst, hops=tuple(hops),
                      link_kinds=tuple(kinds),
                      host_traversing=host_traversing,
                      bottleneck=bottleneck,
                      latency_s=sum(resource.latency_s
                                    for resource, _direction in hops))
        self.routes.store(key, route)
        self.routes.miss_wall_s += time.perf_counter() - began
        return route

    def _route_scope(self, src: str, dst: str) -> Optional[Set[str]]:
        """Vertices the path search may visit, or ``None`` for all.

        Hook for subclasses: :class:`~repro.hw.cluster.ClusterTopology`
        restricts intra-machine routes to the machine's own vertices
        and cross-machine routes to both endpoint machines plus the
        fabric, which keeps the Dijkstra walk O(one machine + fabric)
        instead of O(whole cluster) on a cache miss.
        """
        return None

    def _walk_nodes(self, src: str, edge_path: Sequence[Edge]) -> List[str]:
        """Nodes a path departs from, one per edge."""
        names = [src]
        for edge in edge_path[:-1]:
            names.append(edge.other(names[-1]))
        return names

    def _shortest_edge_path(self, src: str, dst: str,
                            avoid: Optional[frozenset] = None,
                            allowed: Optional[Set[str]] = None) -> List[Edge]:
        """Search over edges, honoring transit rules, widest-path tie-break.

        Dijkstra on the cost ``(hop count, -bottleneck width)`` so that
        among hop-minimal paths the one with the largest bottleneck
        capacity wins deterministically.  ``allowed`` optionally
        restricts the visited vertex set (see :meth:`_route_scope`);
        edges leading outside it are skipped before the tie-break
        counter advances, so a scoped search visits vertices in exactly
        the order an unscoped search over the sub-graph would.
        """
        best: Dict[str, Tuple[int, float]] = {src: (0, float("inf"))}
        parent: Dict[str, Tuple[str, Edge]] = {}
        counter = 0
        heap: List[Tuple[int, float, int, str]] = [(0, 0.0, counter, src)]
        settled: set = set()
        while heap:
            depth, neg_width, _, here = heapq.heappop(heap)
            if here in settled:
                continue
            settled.add(here)
            width = -neg_width if neg_width else float("inf")
            if here == dst:
                break
            if here != src and not self._nodes[here].can_transit:
                continue
            for edge in self._adjacency[here]:
                if avoid is not None and id(edge.resource) in avoid:
                    continue
                there = edge.other(here)
                if allowed is not None and there not in allowed:
                    continue
                if there in settled:
                    continue
                cap = edge.resource.raw_capacity(edge.direction_from(here))
                cand = (depth + 1, min(width, cap))
                known = best.get(there)
                if known is None or cand[0] < known[0] or (
                        cand[0] == known[0] and cand[1] > known[1]):
                    best[there] = cand
                    parent[there] = (here, edge)
                    counter += 1
                    heapq.heappush(heap, (cand[0], -cand[1], counter, there))
        if dst not in parent:
            raise TopologyError(f"no path from {src!r} to {dst!r}")
        path: List[Edge] = []
        walk = dst
        while walk != src:
            prev, edge = parent[walk]
            path.append(edge)
            walk = prev
        path.reverse()
        return path
