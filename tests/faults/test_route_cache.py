"""Route-cache invalidation under link faults.

The :class:`~repro.hw.topology.RouteTable` memoizes Dijkstra results;
the fault injector must drop the cache when a link goes down *and*
again when it is restored, so a warmed cache never serves a route that
crosses a dead link (or keeps a detour after the link returns).  It
drops only those entries: every other route stays a cache hit.
"""

import numpy as np

from repro.faults import FaultPlan
from repro.faults.events import LinkDown, NodeDown
from repro.hw import dgx_a100, make_cluster
from repro.runtime import Machine
from repro.runtime.memcpy import copy_async, span

SCALE = 1e6  # 8 KB physical -> 8 GB logical: copies take ~0.3 sim-s


def _ptop(machine: Machine, src_gpu: int = 0, dst_gpu: int = 2,
          n: int = 1000):
    src_dev = machine.device(src_gpu).alloc(n, np.int64, label="src")
    dst_dev = machine.device(dst_gpu).alloc(n, np.int64, label="dst")
    src_dev.data[:] = np.arange(n, dtype=np.int64)

    def run():
        yield from copy_async(machine, span(dst_dev), span(src_dev))

    machine.run(run())
    return src_dev, dst_dev


class TestLinkDownThroughWarmCache:
    def test_warmed_cache_still_reroutes_around_down_link(self):
        """Satellite: a LinkDown fault reroutes correctly even though
        the gpu0 -> gpu2 route was already cached before the fault."""
        plan = FaultPlan(events=(LinkDown(
            at=0.0, resource="nvswitch_port_gpu2", duration=0.001),))
        machine = Machine(dgx_a100(), scale=SCALE)
        topo = machine.spec.topology

        # Warm the cache with the clean NVSwitch route *before* the
        # injector is armed.
        clean = topo.route("gpu0", "gpu2")
        assert any(r.name == "nvswitch_port_gpu2"
                   for r, _ in clean.hops)
        assert len(topo.routes) >= 1

        machine.install_faults(plan)
        src, dst = _ptop(machine)
        assert np.array_equal(dst.data, src.data)
        assert machine.resilience_stats.reroutes == 1
        # Window open flushed the warm table; the close edge (during
        # the detour copy) flushed the avoid-set routes cached by the
        # reroute itself.
        assert topo.routes.invalidations >= 2

    def test_route_after_restore_matches_the_pre_fault_route(self):
        brief = 0.001
        plan = FaultPlan(events=(LinkDown(
            at=0.0, resource="nvswitch_port_gpu2", duration=brief),))
        machine = Machine(dgx_a100(), scale=SCALE)
        topo = machine.spec.topology
        before = topo.route("gpu0", "gpu2")
        reference = ([r.name for r, _ in before.hops],
                     before.bottleneck, before.latency_s)

        machine.install_faults(plan)
        src, dst = _ptop(machine)
        assert np.array_equal(dst.data, src.data)
        assert machine.env.now > brief  # the window has closed

        after = topo.route("gpu0", "gpu2")
        assert ([r.name for r, _ in after.hops],
                after.bottleneck, after.latency_s) == reference

    def test_cache_is_reused_across_repeated_copies(self):
        machine = Machine(dgx_a100(), scale=SCALE)
        topo = machine.spec.topology
        _ptop(machine)
        hits = topo.routes.hits
        _ptop(machine)
        assert topo.routes.hits > hits
        assert topo.routes.invalidations == 0


class TestScopedInvalidation:
    def test_routes_between_surviving_nodes_stay_hits_after_node_down(self):
        machine = Machine(make_cluster("dgx-a100", 4, fabric="fat-tree"),
                          scale=SCALE)
        topo = machine.spec.topology
        survivors = [("gpu0", "gpu16"), ("gpu16", "gpu24"),
                     ("gpu24", "gpu0"), ("gpu0", "gpu1")]
        for src, dst in survivors + [("gpu0", "gpu8"), ("gpu9", "gpu24")]:
            topo.route(src, dst)
        machine.install_faults(FaultPlan(events=(NodeDown(at=0.0,
                                                          node=1),)))

        def run():
            yield machine.env.timeout(0.001)

        machine.run(run())
        assert topo.routes.invalidations == 1
        hits, misses = topo.routes.hits, topo.routes.misses
        for src, dst in survivors:
            topo.route(src, dst)
        assert (topo.routes.hits, topo.routes.misses) == (
            hits + len(survivors), misses)
        # Routes into and out of the dead node crossed its NIC links.
        topo.route("gpu0", "gpu8")
        topo.route("gpu9", "gpu24")
        assert topo.routes.misses == misses + 2

    def test_down_edge_drops_crossers_and_restore_drops_detours(self):
        machine = Machine(dgx_a100(), scale=SCALE)
        topo = machine.spec.topology
        port = next(edge.resource for edge in topo.edges
                    if edge.resource.name == "nvswitch_port_gpu2")
        around = frozenset({id(port)})
        topo.route("gpu0", "gpu2")
        topo.route("gpu0", "gpu2", avoid=around)
        topo.route("gpu0", "gpu1")
        machine.install_faults(FaultPlan(events=(LinkDown(
            at=0.0, resource="nvswitch_port_gpu2", duration=0.001),)))
        seen = []

        def lookups():
            misses = topo.routes.misses
            topo.route("gpu0", "gpu2")
            topo.route("gpu0", "gpu2", avoid=around)
            topo.route("gpu0", "gpu1")
            return topo.routes.misses - misses

        def run():
            yield machine.env.timeout(0.0005)
            seen.append(lookups())  # link down: only the crosser missed
            yield machine.env.timeout(0.001)
            seen.append(lookups())  # restored: only the detour missed

        machine.run(run())
        assert seen == [1, 1]
        assert topo.routes.invalidations == 2
