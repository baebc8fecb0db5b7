"""The Probe handle: verb binding, levels, artefacts, transport hooks."""

import pytest

from repro.obs import Probe, TraceRuntime
from repro.obs.core import LEVELS, _noop


class TestVerbBinding:
    def test_metrics_only_probe_binds_other_verbs_to_the_shared_noop(self):
        probe = Probe.at_level("metrics")
        assert probe.trace is None and probe.profiler is None and probe.sampler is None
        for verb in ("event", "start_span", "finish", "enter", "exit", "sample"):
            assert getattr(probe, verb) is _noop
        # The no-op swallows every call shape its live counterparts take.
        assert probe.start_span("rbc", 0, 0.0, instance=3) is None
        probe.finish(None, 1.0)
        probe.event("rbc.deliver", 0, 1.0, instance=3)
        probe.enter("dispatch:sbc:rbc")
        probe.exit()
        probe.sample("commit_latency_s", 0.1)
        # ... while the metrics verbs are live.
        probe.count("c", 2, protocol="rbc")
        probe.observe("h", 1.5)
        probe.gauge("g", 4, replica=1)
        probe.mark("t", "start", 0.5)
        snapshot = probe.metrics.snapshot()
        assert snapshot["counters"] == {"c{protocol=rbc}": 2}
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["gauges"]["g{replica=1}"]["value"] == 4
        assert snapshot["timelines"]["t"]["first"] == {"start": 0.5}

    def test_trace_only_probe_counts_nothing(self):
        probe = Probe(trace=TraceRuntime.enabled())
        assert probe.count is _noop and probe.observe is _noop
        assert probe.monitors is probe.trace.monitors
        span = probe.start_span("rbc", 0, 0.0, instance=3)
        probe.event("rbc.deliver", 0, 1.0, instance=3)
        probe.finish(span, 1.0)
        assert span.end == 1.0
        assert [event["name"] for event in probe.trace.tracer.events] == ["rbc.deliver"]

    def test_empty_probe_is_all_noops(self):
        probe = Probe()
        assert probe.monitors is None
        assert probe.timer_context() is None
        fired = []
        probe.fire_timer(lambda: fired.append(1), None, 0.0, owner=0)
        assert fired == [1]
        assert probe.artefacts() == {}


class TestLevels:
    @pytest.mark.parametrize("level", LEVELS)
    def test_each_level_builds_exactly_its_back_ends(self, level):
        probe = Probe.at_level(level)
        assert (probe.metrics is not None) == (level in ("metrics", "all"))
        assert (probe.trace is not None) == (level in ("trace", "all"))
        assert (probe.sampler is not None) == (level in ("live", "all"))
        assert (probe.profiler is not None) == (level in ("live", "all"))
        keys = {"metrics": {"telemetry"}, "trace": {"trace"}, "live": {"obs"}}
        expected = {"telemetry", "trace", "obs"} if level == "all" else keys[level]
        assert set(probe.artefacts()) == expected

    def test_a_publisher_adds_the_live_plane_to_any_level(self):
        events = []
        probe = Probe.at_level("", publisher=events.append)
        assert probe.metrics is None and probe.trace is None
        assert probe.sampler is not None and probe.profiler is not None

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            Probe.at_level("verbose")
