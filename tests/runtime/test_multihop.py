"""Unit tests of GPU-relayed multi-hop P2P copies."""

import numpy as np
import pytest

from repro.errors import RuntimeApiError
from repro.hw import delta_d22x, dgx_a100, ibm_ac922
from repro.runtime import Machine
from repro.runtime.memcpy import span
from repro.runtime.multihop import (
    copy_multihop,
    multihop_rate_estimate,
    relay_gpu_ids,
)

pytestmark = pytest.mark.usefixtures("copy_oracle")


class TestRelayDiscovery:
    def test_delta_relays_exist_for_unlinked_pairs(self, delta):
        # 0 -> 3 goes via GPU 2 (two 48.5 GB/s hops beat 0-1-3's
        # 24 GB/s second hop).
        assert relay_gpu_ids(delta, 0, 3) == [2]
        assert relay_gpu_ids(delta, 1, 2) == [0]

    def test_direct_pairs_need_no_relay(self, delta, dgx):
        assert relay_gpu_ids(delta, 0, 1) is None
        assert relay_gpu_ids(dgx, 0, 7) is None  # NVSwitch is direct

    def test_ac922_has_no_relay_path(self, ac922):
        # GPUs 0/1 and 2/3 form separate NVLink islands.
        assert relay_gpu_ids(ac922, 0, 2) is None

    def test_rate_estimate_is_bottleneck_hop(self, delta):
        from repro.units import gb
        assert multihop_rate_estimate(delta, 0, 3) == pytest.approx(
            gb(48.5))

    def test_rate_estimate_none_without_path(self, ac922):
        assert multihop_rate_estimate(ac922, 0, 2) is None


class TestMultihopCopy:
    def test_payload_delivered_through_relay(self, delta, rng):
        src = delta.device(0).alloc(2000, np.int32)
        src.data[:] = rng.integers(0, 1 << 30, size=2000)
        dst = delta.device(3).alloc(2000, np.int32)

        def run():
            yield from copy_multihop(delta, span(dst), span(src),
                                     relays=[1])

        delta.run(run())
        assert np.array_equal(dst.data, src.data)

    def test_two_relays(self, delta, rng):
        src = delta.device(1).alloc(500, np.int32)
        src.data[:] = rng.integers(0, 100, size=500)
        dst = delta.device(2).alloc(500, np.int32)

        def run():
            yield from copy_multihop(delta, span(dst), span(src),
                                     relays=[0, 3], blocks=4)

        delta.run(run())
        assert np.array_equal(dst.data, src.data)

    def test_empty_relays_falls_back_to_direct(self, delta, rng):
        src = delta.device(0).alloc(100, np.int32)
        src.data[:] = rng.integers(0, 100, size=100)
        dst = delta.device(1).alloc(100, np.int32)

        def run():
            yield from copy_multihop(delta, span(dst), span(src),
                                     relays=[])

        delta.run(run())
        assert np.array_equal(dst.data, src.data)

    def test_relayed_beats_host_staged(self, rng):
        from repro.runtime.memcpy import copy_async

        def timed(use_relay: bool) -> float:
            machine = Machine(delta_d22x(), scale=1000)
            src = machine.device(0).alloc(1_000_000, np.int32)
            dst = machine.device(3).alloc(1_000_000, np.int32)

            def run():
                if use_relay:
                    yield from copy_multihop(machine, span(dst), span(src),
                                             relays=[2])
                else:
                    yield from copy_async(machine, span(dst), span(src))

            machine.run(run())
            return machine.now

        assert timed(use_relay=True) < 0.5 * timed(use_relay=False)

    def test_pipelining_improves_with_blocks(self):
        def timed(blocks: int) -> float:
            machine = Machine(delta_d22x(), scale=1000)
            src = machine.device(0).alloc(1_000_000, np.int32)
            dst = machine.device(3).alloc(1_000_000, np.int32)

            def run():
                yield from copy_multihop(machine, span(dst), span(src),
                                         relays=[1], blocks=blocks)

            machine.run(run())
            return machine.now

        assert timed(8) < timed(1)

    def test_size_mismatch_rejected(self, delta):
        src = delta.device(0).alloc(10, np.int32)
        dst = delta.device(3).alloc(20, np.int32)
        with pytest.raises(RuntimeApiError):
            delta.run(copy_multihop(delta, span(dst), span(src),
                                    relays=[1]))

    def test_invalid_blocks_rejected(self, delta):
        src = delta.device(0).alloc(10, np.int32)
        dst = delta.device(3).alloc(10, np.int32)
        with pytest.raises(RuntimeApiError):
            delta.run(copy_multihop(delta, span(dst), span(src),
                                    relays=[1], blocks=0))

    def test_relay_buffers_are_freed(self, delta, rng):
        relay = delta.device(1)
        before = relay.allocated_logical
        src = delta.device(0).alloc(512, np.int32)
        src.data[:] = rng.integers(0, 9, size=512)
        dst = delta.device(3).alloc(512, np.int32)
        delta.run(copy_multihop(delta, span(dst), span(src), relays=[1]))
        assert relay.allocated_logical == before


class TestSortIntegration:
    def test_multihop_p2p_sort_is_correct_and_faster(self, rng):
        from repro.sort import P2PConfig, p2p_sort

        data = rng.integers(0, 1 << 30, size=4096).astype(np.int32)

        def run(multihop: bool):
            machine = Machine(delta_d22x(), scale=2_000_000)
            return p2p_sort(machine, data, gpu_ids=(0, 1, 2, 3),
                            config=P2PConfig(multihop=multihop))

        staged = run(False)
        relayed = run(True)
        assert np.array_equal(relayed.output, np.sort(data))
        assert relayed.duration < staged.duration

    def test_multihop_is_noop_on_dgx(self, rng):
        from repro.sort import P2PConfig, p2p_sort

        data = rng.integers(0, 1 << 30, size=2048).astype(np.int32)

        def run(multihop: bool):
            machine = Machine(dgx_a100(), scale=1_000_000)
            return p2p_sort(machine, data, gpu_ids=(0, 1, 2, 3),
                            config=P2PConfig(multihop=multihop)).duration

        assert run(True) == pytest.approx(run(False), rel=1e-9)

    def test_multihop_noop_on_ac922(self, rng):
        # No relay path exists, so the flag must not change anything.
        from repro.sort import P2PConfig, p2p_sort

        data = rng.integers(0, 1 << 30, size=2048).astype(np.int32)

        def run(multihop: bool):
            machine = Machine(ibm_ac922(), scale=1_000_000)
            return p2p_sort(machine, data, gpu_ids=(0, 1, 2, 3),
                            config=P2PConfig(multihop=multihop)).duration

        assert run(True) == pytest.approx(run(False), rel=1e-9)
