"""Recorder behaviour, from bare flow-network hooks to full sort runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RuntimeApiError
from repro.hw import dgx_a100, ibm_ac922
from repro.obs.recorder import Recorder
from repro.obs.telemetry import link_series
from repro.runtime import Machine
from repro.sim.resources import Direction, Resource
from repro.sort import het_sort, p2p_sort


class TestFlowHooks:
    def _storm(self, env, net, recorder, n=8):
        net.obs = recorder
        shared = Resource("shared", 100.0)
        private = [Resource(f"p{i}", 5.0 + i) for i in range(n)]

        def arrivals():
            for i in range(n):
                net.start_flow(
                    [(shared, Direction.FWD), (private[i], Direction.FWD)],
                    10.0 * (i + 1), label=f"f{i}")
                yield env.timeout(0.05)

        env.process(arrivals())
        env.run()

    def test_flow_lifecycles_compile(self, env, net):
        recorder = Recorder()
        self._storm(env, net, recorder)
        assert len(recorder.flows) == 8
        assert all(record.end is not None for record in recorder.flows)
        assert all(not record.aborted for record in recorder.flows)
        assert all(record.duration > 0 for record in recorder.flows)
        assert recorder.metrics.counter("flows.started").value == 8
        assert recorder.metrics.counter("flows.retired").value == 8
        assert recorder.metrics.gauge("flows.active").value == 0

    def test_events_arrive_in_time_order(self, env, net):
        recorder = Recorder()
        self._storm(env, net, recorder)
        times = [event.t for event in recorder.events]
        assert times == sorted(times)
        assert recorder.last_time == pytest.approx(env.now)

    def test_link_rate_integrates_to_bytes_carried(self, env, net):
        # The fluid model is piecewise constant, so integrating the
        # change-driven LinkRate series over the run must reproduce the
        # bytes each link carried exactly: every flow crosses the shared
        # link plus one private link, contributing its size to both.
        recorder = Recorder()
        self._storm(env, net, recorder)
        series = link_series(recorder)
        flow_bytes = sum(record.size for record in recorder.flows)
        shared = series[("shared", "fwd")]
        assert shared.integrate(0.0, env.now) == pytest.approx(flow_bytes)
        total = sum(entry.integrate(0.0, env.now)
                    for entry in series.values())
        assert total == pytest.approx(2 * flow_bytes)

    def test_final_link_rates_return_to_zero(self, env, net):
        recorder = Recorder()
        self._storm(env, net, recorder)
        for entry in link_series(recorder).values():
            assert entry.points[-1][1] == 0.0


class TestMachineIntegration:
    def _sorted_run(self, machine, algorithm=p2p_sort, n=4096):
        recorder = machine.enable_observability()
        rng = np.random.default_rng(7)
        data = rng.integers(0, 1 << 20, size=n).astype(np.int32)
        result = algorithm(machine, data)
        assert np.array_equal(result.output, np.sort(data))
        return recorder, result

    def test_enable_twice_raises(self, dgx):
        dgx.enable_observability()
        with pytest.raises(RuntimeApiError):
            dgx.enable_observability()

    def test_supplied_recorder_is_used(self):
        machine = Machine(dgx_a100(), scale=1)
        mine = Recorder(engine_sample_every=64)
        assert machine.enable_observability(mine) is mine

    def test_p2p_sort_emits_full_stream(self, dgx):
        recorder, _ = self._sorted_run(dgx)
        kinds = {event.kind for event in recorder.events}
        assert {"flow_start", "flow_retire", "link_rate",
                "engine_acquire", "engine_release", "kernel_launch",
                "engine_sample"} <= kinds
        assert recorder.metrics.counter("kernels.launched").value > 0
        assert recorder.metrics.counter("flows.aborted").value == 0

    def test_flows_are_parented_under_trace_spans(self, dgx):
        recorder, _ = self._sorted_run(dgx)
        assert recorder.flows
        span_ids = {span.id for span in dgx.trace.spans}
        for record in recorder.flows:
            assert record.parent_span is not None
            assert record.parent_span in span_ids

    def test_engine_slots_balance(self, dgx):
        recorder, _ = self._sorted_run(dgx)
        acquires = recorder.events_of("engine_acquire")
        releases = recorder.events_of("engine_release")
        assert acquires and len(acquires) == len(releases)
        # Every device DMA engine has a stable, addressable label.
        labels = {event.engine for event in acquires}
        assert "gpu0.dma_in" in labels

    def test_root_span_encloses_the_run(self, dgx):
        recorder, result = self._sorted_run(dgx)
        roots = [s for s in dgx.trace.spans if s.phase == "P2PSort"]
        assert len(roots) == 1
        root = roots[0]
        assert root.parent is None
        assert root.duration == pytest.approx(result.duration)
        children = dgx.trace.children_of(root.id)
        assert {span.phase for span in children} >= {"HtoD", "Sort", "DtoH"}

    def test_het_sort_on_ac922_instruments_too(self):
        machine = Machine(ibm_ac922(), scale=1)
        recorder, _ = self._sorted_run(machine, algorithm=het_sort, n=2048)
        assert [s.phase for s in machine.trace.spans].count("HetSort") == 1
        assert any(event.kind == "link_rate" and "xbus" in event.link
                   for event in recorder.events)

    def test_plain_het_sort_is_recorded_under_its_own_names(self):
        # Out of core, so a run that checkpointed would record one per
        # chunk group.
        machine = Machine(dgx_a100(), scale=512e9 / 8192)
        recorder, result = self._sorted_run(machine, algorithm=het_sort,
                                            n=8192)
        assert result.algorithm == "het"
        assert result.chunk_groups > 1
        roots = [s for s in machine.trace.spans if s.parent is None]
        assert [(s.phase, s.actor) for s in roots] == [("HetSort", "sort")]
        assert result.checkpoints == 0
        assert recorder.events_of("checkpoint") == []

    def test_stream_submissions_are_recorded(self, dgx):
        from repro.runtime.stream import Stream

        recorder = dgx.enable_observability()
        stream = Stream(dgx, name="probe")

        def op():
            yield dgx.env.timeout(0.1)

        stream.submit(op())
        stream.submit(op())
        dgx.env.run()
        ops = recorder.events_of("stream_op")
        assert [(e.stream, e.depth) for e in ops] == [
            ("probe", 1), ("probe", 2)]
        assert recorder.metrics.gauge("stream.probe.depth").value == 0
        assert recorder.metrics.counter("stream.probe.ops").value == 2

    def test_faults_reach_the_stream(self):
        from repro.faults.plan import FaultPlan

        spec = ibm_ac922()
        # The scale stretches simulated time so the plan's fault windows
        # land inside the run.
        machine = Machine(spec, scale=100_000)
        recorder = machine.enable_observability()
        machine.install_faults(FaultPlan.generate(
            spec, seed=3, intensity=1.0, horizon=0.2))
        rng = np.random.default_rng(7)
        data = rng.integers(0, 1 << 20, size=4096).astype(np.int32)
        result = het_sort(machine, data)
        assert np.array_equal(result.output, np.sort(data))
        opens = recorder.events_of("fault_open")
        closes = recorder.events_of("fault_close")
        assert opens
        # Windows still open when the sim ends never close.
        windows = [e for e in opens if not e.instant]
        assert len(closes) <= len(windows)
        for close in closes:
            assert close.opened <= close.t
        assert recorder.metrics.counter("faults.window_seconds").value > 0

    def test_to_dicts_is_json_ready(self, dgx):
        import json

        recorder, _ = self._sorted_run(dgx)
        payload = json.dumps(recorder.to_dicts())
        assert '"kind": "flow_start"' in payload


    def test_two_runs_of_one_sort_record_equal_streams(self):
        streams = []
        for _ in range(2):
            machine = Machine(dgx_a100(), scale=2e9 / 4096)
            recorder, _ = self._sorted_run(machine)
            streams.append(recorder.to_dicts())
        assert streams[0] == streams[1]

    def test_no_flow_id_is_reused_within_a_run(self, dgx):
        recorder, _ = self._sorted_run(dgx)
        starts = [event.fid for event in recorder.events_of("flow_start")]
        assert len(starts) == len(recorder.flows) > 1
        assert len(set(starts)) == len(starts)
        assert [record.fid for record in recorder.flows] == starts
        ended = [event.fid for event in recorder.events
                 if event.kind in ("flow_retire", "flow_abort")]
        assert sorted(ended) == sorted(starts)


class TestRecorderGuards:
    def test_sample_decimation_validated(self):
        with pytest.raises(ValueError):
            Recorder(engine_sample_every=0)

    def test_engine_sampling_decimates(self, env, net):
        recorder = Recorder(engine_sample_every=4)
        env.obs = recorder

        def ticks():
            for _ in range(20):
                yield env.timeout(0.1)

        env.process(ticks())
        env.run()
        samples = recorder.events_of("engine_sample")
        assert samples
        assert len(samples) <= env.events_processed // 4 + 1
