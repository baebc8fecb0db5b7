"""Unit tests for the metric primitives, the registry and the activation scope."""

import csv
import json
import math
import timeit

import pytest

from repro.analysis.metrics import percentiles, summarize_latencies
from repro.obs import Probe, activate, current
from repro.obs.export import SERIES_COLUMNS, series_rows, write_csv, write_jsonl
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    SERIES_POINTS,
    TelemetryRegistry,
    metric_key,
    protocol_group,
    split_metric_key,
)


class TestPercentiles:
    def test_empty_returns_zeros(self):
        assert percentiles(()) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_single_sample(self):
        assert percentiles([7.0]) == {"p50": 7.0, "p95": 7.0, "p99": 7.0}

    def test_interpolated_median(self):
        assert percentiles([1.0, 2.0], points=(50.0,)) == {"p50": 1.5}

    def test_known_distribution(self):
        values = list(range(1, 101))  # 1..100
        result = percentiles(values)
        assert result["p50"] == pytest.approx(50.5)
        assert result["p95"] == pytest.approx(95.05)
        assert result["p99"] == pytest.approx(99.01)

    def test_order_independent(self):
        assert percentiles([3, 1, 2]) == percentiles([1, 2, 3])

    def test_custom_point_key(self):
        assert set(percentiles([1.0], points=(99.9,))) == {"p99.9"}

    def test_summarize_includes_percentiles(self):
        summary = summarize_latencies([1.0, 2.0, 3.0])
        assert summary["count"] == 3
        assert summary["p50"] == 2.0
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["ci95"] == pytest.approx(1.96 * 1.0 / math.sqrt(3))

    def test_summarize_empty_keeps_percentile_keys(self):
        summary = summarize_latencies([])
        assert summary["p50"] == 0.0 and summary["p99"] == 0.0


class TestMetricKeys:
    def test_plain_name(self):
        assert metric_key("net.messages", {}) == "net.messages"

    def test_labels_sorted(self):
        key = metric_key("m", {"b": 2, "a": 1})
        assert key == "m{a=1,b=2}"

    def test_round_trip(self):
        key = metric_key("m", {"kind": "ECHO", "protocol": "sbc:rbc"})
        name, labels = split_metric_key(key)
        assert name == "m"
        assert labels == {"kind": "ECHO", "protocol": "sbc:rbc"}

    def test_protocol_group(self):
        assert protocol_group("sbc.e0:3:rbc:5") == "sbc:rbc"
        assert protocol_group("sbc.e2:1:bin:0") == "sbc:bin"
        assert protocol_group("excl:1:rbc:4") == "excl:rbc"
        assert protocol_group("incl:1:bin:4") == "incl:bin"
        assert protocol_group("asmr:confirm:7") == "asmr:confirm"
        assert protocol_group("asmr:pofs") == "asmr:pofs"
        assert protocol_group("ping") == "ping"


class TestPrimitives:
    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.snapshot() == 6

    def test_gauge_tracks_min_max(self):
        gauge = Gauge()
        for value in (5, 2, 9):
            gauge.set(value)
        snapshot = gauge.snapshot()
        assert snapshot == {"value": 9, "min": 2, "max": 9, "writes": 3}

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.snapshot()
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["min"] == 1.0 and summary["max"] == 100.0

    def test_empty_histogram(self):
        summary = Histogram().snapshot()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_gauge_min_is_the_first_time_of_a_recovery_step(self):
        gauge = Gauge()
        for at in (3.0, 1.5, 9.0):
            gauge.set(at)
        assert gauge.snapshot() == {"value": 9.0, "min": 1.5, "max": 9.0, "writes": 3}


class TestRegistry:
    def test_metrics_are_memoised(self):
        registry = TelemetryRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.counter("c", a=1) is not registry.counter("c", a=2)
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.gauge("g") is registry.gauge("g")

    def test_len_counts_all_metrics(self):
        registry = TelemetryRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c")
        assert len(registry) == 3

    def test_snapshot_is_json_serialisable(self):
        registry = TelemetryRegistry()
        registry.counter("msgs", protocol="rbc").inc(3)
        registry.gauge("depth").set(17)
        registry.histogram("lat").observe(0.5)
        registry.sample(0.25)
        snapshot = registry.snapshot()
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped["counters"]["msgs{protocol=rbc}"] == 3
        assert round_tripped["histograms"]["lat"]["count"] == 1
        assert round_tripped["series"]["depth"] == {"points": [[0.25, 17]], "dropped": 0}


class TestSeries:
    def test_a_sample_adds_a_point_per_counter_and_gauge_that_changed(self):
        registry = TelemetryRegistry()
        registry.count("net.messages_sent", 50, protocol="sbc:rbc")
        registry.set_gauge("mempool.pending", 7, replica=0)
        registry.gauge("never.written")
        registry.sample(0.0)
        registry.count("net.messages_sent", 10, protocol="sbc:rbc")
        registry.sample(0.25)
        registry.set_gauge("mempool.pending", 3, replica=0)
        registry.sample(0.5)
        series = registry.snapshot()["series"]
        # An unchanged value adds no point: the last one holds until the next.
        assert series["net.messages_sent{protocol=sbc:rbc}"]["points"] == [
            [0.0, 50],
            [0.25, 60],
        ]
        assert series["mempool.pending{replica=0}"]["points"] == [[0.0, 7], [0.5, 3]]
        assert "never.written" not in series

    def test_a_histogram_point_covers_what_it_observed_since_the_last_sample(self):
        registry = TelemetryRegistry()
        for value in (1.0, 1.0, 1.0):
            registry.observe("zlb.commit_latency_s", value)
        registry.sample(0.25)
        registry.sample(0.5)  # nothing observed in between: no point
        for value in (1.5, 2.5):
            registry.observe("zlb.commit_latency_s", value)
        registry.observe("rbc.deliver_s", 4.0, replica=3)
        registry.sample(0.75)
        series = registry.snapshot()["series"]
        assert series["zlb.commit_latency_s.p50"]["points"] == [[0.25, 1.0], [0.75, 2.0]]
        assert series["zlb.commit_latency_s.p99"]["points"][-1][1] == pytest.approx(2.49)
        assert series["rbc.deliver_s.p99{replica=3}"]["points"] == [[0.75, 4.0]]
        # The whole-run summary still covers every observation.
        assert registry.snapshot()["histograms"]["zlb.commit_latency_s"]["count"] == 5

    def test_a_ring_keeps_the_newest_points_and_counts_the_dropped(self):
        registry = TelemetryRegistry()
        for tick in range(SERIES_POINTS + 5):
            registry.count("c")
            registry.sample(tick * 0.25)
        # Unchanged ticks append nothing, so they drop nothing either.
        for tick in range(SERIES_POINTS + 5, SERIES_POINTS + 10):
            registry.sample(tick * 0.25)
        series = registry.snapshot()["series"]["c"]
        assert len(series["points"]) == SERIES_POINTS
        assert series["points"][0] == [5 * 0.25, 6]
        assert series["points"][-1] == [(SERIES_POINTS + 4) * 0.25, SERIES_POINTS + 5]
        assert series["dropped"] == 5

    def test_series_export_as_jsonl_and_long_form_csv(self, tmp_path):
        registry = TelemetryRegistry()
        registry.count("net.messages_sent", 10, protocol="sbc:bin")
        registry.observe("zlb.commit_latency_s", 0.5)
        registry.sample(0.25)
        cells = [("cell-a", registry.snapshot())]
        rows = list(series_rows(cells))
        assert {row["cell"] for row in rows} == {"cell-a"}
        assert {row["series"] for row in rows} == {
            "net.messages_sent{protocol=sbc:bin}",
            "zlb.commit_latency_s.p50",
            "zlb.commit_latency_s.p99",
        }
        jsonl = write_jsonl(series_rows(cells), tmp_path / "series.jsonl")
        assert [json.loads(line) for line in open(jsonl)] == rows
        path = write_csv(series_rows(cells), tmp_path / "series.csv", columns=SERIES_COLUMNS)
        with open(path, newline="") as handle:
            lines = list(csv.reader(handle))
        assert lines[0] == ["cell", "series", "t", "value"]
        assert len(lines) - 1 == len(rows)

    def test_recent_observations_are_bounded_without_samples(self):
        histogram = Histogram(capacity=4)
        for value in range(10):
            histogram.observe(value)
        assert list(histogram.recent) == [6.0, 7.0, 8.0, 9.0]


class TestActivation:
    def test_default_is_disabled(self):
        assert current() is None

    def test_activate_installs_and_restores(self):
        probe = Probe(metrics=TelemetryRegistry())
        with activate(probe) as active:
            assert active is probe
            assert current() is probe
        assert current() is None

    def test_nested_activation_restores_outer(self):
        outer, inner = Probe(), Probe()
        with activate(outer):
            with activate(inner):
                assert current() is inner
            assert current() is outer

    def test_activate_none_shields_block(self):
        outer = Probe()
        with activate(outer):
            with activate(None):
                assert current() is None
            assert current() is outer


class TestDisabledModeNoOp:
    """The zero-overhead-when-disabled contract."""

    def test_disabled_simulator_records_nothing(self):
        from repro.common.config import SimulationConfig
        from repro.network.message import Message
        from repro.network.simulator import NetworkSimulator, Process

        class Echo(Process):
            def on_message(self, message):
                if message.body["hops"] > 0:
                    self.send_to(
                        message.sender,
                        "ping",
                        "PING",
                        {"hops": message.body["hops"] - 1},
                    )

        simulator = NetworkSimulator(config=SimulationConfig(seed=1))
        assert simulator.probe is None
        a, b = Echo(0), Echo(1)
        simulator.add_process(a)
        simulator.add_process(b)
        assert a.probe is None
        simulator.submit(
            Message(sender=0, recipient=1, protocol="ping", kind="PING", body={"hops": 10})
        )
        simulator.run()
        assert simulator.messages_delivered == 11

    def test_disabled_guard_overhead_is_a_pointer_check(self):
        """The instrumented-but-disabled hot path must cost no more than a
        None comparison: benchmark the guard against a bare loop body and
        allow a generous margin so the test never flakes on CI."""
        probe = None
        live = Probe(metrics=TelemetryRegistry())

        def disabled():
            if probe is not None:
                probe.count("x")

        def bare():
            pass

        def enabled():
            if live is not None:
                live.count("x")

        iterations = 50_000
        bare_s = min(timeit.repeat(bare, number=iterations, repeat=5))
        disabled_s = min(timeit.repeat(disabled, number=iterations, repeat=5))
        enabled_s = min(timeit.repeat(enabled, number=iterations, repeat=5))
        # The disabled guard stays within noise of an empty call; the margin
        # is deliberately loose (5x) because both sides are nanoseconds.
        assert disabled_s < bare_s * 5
        # Sanity: actually recording is the expensive side.
        assert enabled_s > disabled_s
