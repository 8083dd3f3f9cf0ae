"""Unit tests of the NUMA placement helpers."""

import numpy as np
import pytest

from repro.data import generate
from repro.hw import ibm_ac922
from repro.runtime import Machine
from repro.sort import P2PConfig, p2p_sort
from repro.sort import placement as pl


@pytest.fixture
def host_in(ac922, rng):
    return ac922.host_buffer(
        rng.integers(0, 100, size=400).astype(np.int32))


class TestPlaceChunks:
    def test_node0_placement_shares_the_input(self, ac922, host_in):
        chunks = pl.place_chunks(ac922, host_in, (0, 1, 2, 3),
                                 [(i * 100, (i + 1) * 100)
                                  for i in range(4)],
                                 placement=pl.NODE0)
        for chunk in chunks:
            assert chunk.staging.numa == host_in.numa
            # A view, not a copy: writes show through.
            assert chunk.staging.data.base is host_in.data

    def test_numa_local_placement_follows_the_gpus(self, ac922, host_in):
        chunks = pl.place_chunks(ac922, host_in, (0, 1, 2, 3),
                                 [(i * 100, (i + 1) * 100)
                                  for i in range(4)],
                                 placement=pl.NUMA_LOCAL)
        assert [c.staging.numa for c in chunks] == [0, 0, 1, 1]
        for i, chunk in enumerate(chunks):
            assert np.array_equal(chunk.staging.data,
                                  host_in.data[i * 100:(i + 1) * 100])


class TestRedistribute:
    def test_only_off_node_chunks_cost_time(self, ac922, host_in):
        chunks = pl.place_chunks(ac922, host_in, (0, 1, 2, 3),
                                 [(i * 100, (i + 1) * 100)
                                  for i in range(4)],
                                 placement=pl.NUMA_LOCAL)
        machine = Machine(ibm_ac922(), scale=10_000_000)
        remade = pl.place_chunks(machine,
                                 machine.host_buffer(host_in.data.copy()),
                                 (0, 1, 2, 3),
                                 [(i * 100, (i + 1) * 100)
                                  for i in range(4)],
                                 placement=pl.NUMA_LOCAL)

        def run():
            yield from pl.redistribute(
                machine, machine.host_buffer(host_in.data.copy()), remade)

        machine.run(run())
        # 2 off-node chunks of 100 keys x 4 B x 1e7 scale = 4 GB each
        # over the X-Bus: 41 GB/s with the two-flow sharing factor 0.95.
        assert machine.now == pytest.approx(8e9 / (41e9 * 0.95),
                                            rel=0.02)
        assert len(chunks) == 4

    def test_charged_move_is_the_only_move(self, ac922, host_in):
        # Charged placement leaves each off-node payload to the
        # Redistribute copy: it reads the input when it runs, so an
        # input written after placement shows up in every chunk.
        chunks = pl.place_chunks(ac922, host_in, (0, 1, 2, 3),
                                 [(i * 100, (i + 1) * 100)
                                  for i in range(4)],
                                 placement=pl.NUMA_LOCAL,
                                 charge_redistribution=True)
        host_in.data[:] = np.arange(400, dtype=np.int32)
        ac922.run(pl.redistribute(ac922, host_in, chunks))
        for i, chunk in enumerate(chunks):
            assert np.array_equal(chunk.staging.data,
                                  np.arange(i * 100, (i + 1) * 100))

    def test_p2p_sort_moves_each_off_node_chunk_once(self, monkeypatch):
        # Every Redistribute copy must carry its payload: a destination
        # that already holds it was moved twice.
        landed_before = []
        real_copy = pl.copy_async

        def recording_copy(machine, dst, src, phase=None):
            landed_before.append(np.array_equal(dst.view, src.view))
            return real_copy(machine, dst, src, phase=phase)

        monkeypatch.setattr(pl, "copy_async", recording_copy)
        machine = Machine(ibm_ac922(), scale=1000)
        data = generate(40_000, "uniform", np.int64, seed=5)
        values = np.arange(40_000, dtype=np.int64)
        result = p2p_sort(machine, data, values=values,
                          config=P2PConfig(input_placement=pl.NUMA_LOCAL))
        assert np.array_equal(result.output, np.sort(data))
        assert np.array_equal(data[result.output_values], result.output)
        assert landed_before == [False] * 4
        assert result.phase_durations["Redistribute"] > 0.0

    def test_all_local_is_free(self, ac922, host_in):
        chunks = pl.place_chunks(ac922, host_in, (0, 1),
                                 [(0, 200), (200, 400)],
                                 placement=pl.NUMA_LOCAL)
        ac922.run(pl.redistribute(ac922, host_in, chunks))
        assert ac922.now == 0.0


class TestOutputBuffers:
    def test_local_outputs_land_on_gpu_nodes(self, ac922):
        out = ac922.host_buffer(np.zeros(40, np.int32), pinned=False)
        buffer = pl.output_buffer_for(ac922, gpu_id=3, out=out, start=30,
                                      stop=40, placement=pl.NUMA_LOCAL)
        assert buffer.numa == 1
        assert buffer.pinned
        assert np.shares_memory(buffer.data, out.data[30:40])

    def test_node0_outputs_use_the_default(self, ac922):
        out = ac922.host_buffer(np.zeros(40, np.int32))
        buffer = pl.output_buffer_for(ac922, gpu_id=3, out=out, start=30,
                                      stop=40, placement=pl.NODE0)
        assert buffer.numa == 0
        assert np.shares_memory(buffer.data, out.data[30:40])
        assert len(buffer) == 10


class TestPivotHistory:
    def test_sorted_input_records_zero_pivots(self, ac922):
        from repro.sort import p2p_sort

        result = p2p_sort(ac922, np.arange(1024, dtype=np.int32),
                          gpu_ids=(0, 1, 2, 3))
        assert len(result.pivots) == 5  # T(4) pivot selections
        assert all(p == 0 for p in result.pivots)
        assert result.p2p_bytes == 0.0

    def test_reversed_input_records_full_pivots(self, ac922):
        from repro.sort import p2p_sort

        data = np.arange(1024, dtype=np.int32)[::-1].copy()
        result = p2p_sort(ac922, data, gpu_ids=(0, 1))
        assert result.pivots == (512,)
