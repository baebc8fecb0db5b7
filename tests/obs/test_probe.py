"""The Probe handle: verb binding, levels, artefacts, transport hooks."""

import ast
import importlib
import inspect

import pytest

from repro.obs import Probe, TraceRuntime
from repro.obs.core import LEVELS, _noop
from repro.obs.trace import TraceContext


class TestVerbBinding:
    def test_metrics_only_probe_binds_other_verbs_to_the_shared_noop(self):
        probe = Probe.at_level("metrics")
        assert probe.trace is None
        for verb in ("event", "start_span", "finish"):
            assert getattr(probe, verb) is _noop
        # The no-op swallows every call shape its live counterparts take.
        assert probe.start_span("rbc", 0, 0.0, instance=3) is None
        probe.finish(None, 1.0)
        probe.event("rbc.deliver", 0, 1.0, instance=3)
        # ... while the metrics verbs are live.
        probe.count("c", 2, protocol="rbc")
        probe.observe("h", 1.5)
        probe.gauge("g", 4, replica=1)
        snapshot = probe.metrics.snapshot()
        assert snapshot["counters"] == {"c{protocol=rbc}": 2}
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["gauges"]["g{replica=1}"]["value"] == 4

    def test_trace_only_probe_counts_nothing(self):
        probe = Probe(trace=TraceRuntime.enabled())
        assert probe.count is _noop and probe.observe is _noop
        assert probe.trace.recorder is not None
        span = probe.start_span("rbc", 0, 0.0, instance=3)
        probe.event("rbc.deliver", 0, 1.0, instance=3)
        probe.finish(span, 1.0)
        assert span.end == 1.0
        assert [event["name"] for event in probe.trace.tracer.events] == ["rbc.deliver"]

    def test_empty_probe_is_all_noops(self):
        probe = Probe()
        # The invariant monitors belong to the deployment, not to a probe.
        assert not hasattr(probe, "monitors")
        assert probe.timer_context() is None
        fired = []
        probe.fire_timer(lambda: fired.append(1), None, 0.0, owner=0)
        assert fired == [1]
        assert probe.artefacts() == {}

    def test_fire_timer_runs_under_the_captured_context_and_restores_it(self):
        probe = Probe(trace=TraceRuntime.enabled())
        tracer = probe.trace.tracer
        captured = TraceContext(trace_id=4, span_id=9)
        outer = TraceContext(trace_id=1, span_id=1)
        tracer.activate(outer)
        seen = []
        probe.fire_timer(lambda: seen.append(tracer.current_ctx), captured, 2.5, owner=3)
        assert seen == [captured]
        assert tracer.current_ctx is outer
        (event,) = probe.trace.recorder.events_since(-1)
        assert (event["type"], event["replica"], event["t"]) == ("timer", 3, 2.5)
        assert event["trace"] == "t4:s9"

    def test_fire_timer_restores_the_context_when_the_callback_raises(self):
        probe = Probe(trace=TraceRuntime.enabled())
        tracer = probe.trace.tracer

        def boom():
            raise RuntimeError("timer failed")

        with pytest.raises(RuntimeError):
            probe.fire_timer(boom, TraceContext(trace_id=2, span_id=2), 0.0, owner=0)
        assert tracer.current_ctx is None


class TestLevels:
    @pytest.mark.parametrize("level", LEVELS)
    def test_each_level_builds_exactly_its_back_ends(self, level):
        probe = Probe.at_level(level)
        assert (probe.metrics is not None) == (level in ("metrics", "all"))
        assert (probe.trace is not None) == (level in ("trace", "all"))
        keys = {"metrics": {"telemetry"}, "trace": {"trace"}}
        expected = {"telemetry", "trace"} if level == "all" else keys[level]
        assert set(probe.artefacts()) == expected

    def test_a_publisher_rides_on_any_level(self):
        events = []
        probe = Probe.at_level("", publisher=events.append)
        assert probe.metrics is None and probe.trace is None
        assert probe.publisher == events.append
        assert probe.artefacts() == {}

    def test_two_back_end_slots_and_six_verbs(self):
        assert LEVELS == ("metrics", "trace", "all")
        verbs = {"count", "observe", "gauge", "event", "start_span", "finish"}
        assert verbs <= set(Probe.__slots__)
        assert not {"sampler", "sample", "mark", "cell", "profiler"} & set(
            Probe.__slots__
        )

    @pytest.mark.parametrize("level", ["verbose", "live"])
    def test_unknown_level_rejected(self, level):
        with pytest.raises(ValueError, match="unknown instrumentation level"):
            Probe.at_level(level)


class TestTick:
    def test_a_tick_samples_the_metrics_and_publishes_progress(self):
        events = []
        probe = Probe.at_level("metrics", publisher=events.append)
        probe.observe("zlb.commit_latency_s", 0.5)
        probe.tick(0.25, 40)
        (event,) = events
        assert (event["kind"], event["sim_time"], event["events"]) == ("tick", 0.25, 40)
        assert event["events_per_sec"] > 0
        snapshot = probe.metrics.snapshot()
        assert snapshot["series"]["zlb.commit_latency_s.p99"]["points"] == [[0.25, 0.5]]
        assert snapshot["gauges"]["sim.events_per_sec"]["value"] == event["events_per_sec"]

    def test_a_new_simulator_restarting_the_event_count_keeps_the_rate_positive(self):
        events = []
        probe = Probe(publisher=events.append)
        probe.tick(30.0, 5_000)
        probe.tick(0.0, 10)
        assert [event["events_per_sec"] >= 0 for event in events] == [True, True]

    def test_a_trace_only_tick_records_nothing(self):
        probe = Probe.at_level("trace")
        probe.tick(0.25, 10)
        assert probe.artefacts()["trace"]["spans"] == 0


class TestLayering:
    @pytest.mark.parametrize("module", ["repro.network.router", "repro.smr.replica"])
    def test_dispatch_and_crypto_paths_do_not_import_obs(self, module):
        tree = ast.parse(inspect.getsource(importlib.import_module(module)))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert imported
        assert not [name for name in imported if name.startswith("repro.obs")]
