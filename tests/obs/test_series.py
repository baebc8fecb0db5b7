"""Streaming sampler: cadence, rings, quantiles, exports."""

import csv
import json

import pytest

from repro.obs.export import SERIES_COLUMNS, series_rows, write_csv, write_jsonl
from repro.obs.series import SeriesRing, SlidingQuantile, StreamingSampler


class TestSeriesRing:
    def test_wraps_and_counts_dropped_points(self):
        ring = SeriesRing(capacity=3)
        for i in range(5):
            ring.append(float(i), float(i))
        assert [t for t, _ in ring.points] == [2.0, 3.0, 4.0]
        assert ring.dropped == 2


class TestSlidingQuantile:
    def test_window_tracks_recent_observations(self):
        quantile = SlidingQuantile(window=4)
        for value in (1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0):
            quantile.observe(value)
        # Window holds only the last four observations.
        assert list(quantile.window) == [9.0] * 4
        assert quantile.current()["p50"] == 9.0


class TestSampler:
    def test_rejects_non_positive_cadence(self):
        with pytest.raises(ValueError):
            StreamingSampler(cadence_s=0.0)

    def test_first_tick_is_baseline_only(self):
        sampler = StreamingSampler(cadence_s=0.5)
        sampler.tick(0.0, 10)
        assert sampler.next_tick == 0.5
        assert sampler.snapshot()["series"] == {}

    def test_tick_records_rates_gauges_and_quantiles(self):
        sampler = StreamingSampler(cadence_s=0.5)
        depth = [7.0]
        sampler.register_gauge("mempool.pending", lambda: depth[0])
        sampler.tick(0.0, 0)
        sampler.count_message("sbc:rbc", 50)
        sampler.observe("commit_latency_s", 1.5)
        sampler.observe("commit_latency_s", 2.5)
        sampler.tick(0.5, 100)

        snap = sampler.snapshot()
        series = snap["series"]
        assert len(series["events_per_sec"]["points"]) == 1
        # 50 messages over 0.5 simulated seconds.
        ((_, rate),) = series["msgs_per_sec:sbc:rbc"]["points"]
        assert rate == pytest.approx(100.0)
        ((_, gauge),) = series["mempool.pending"]["points"]
        assert gauge == 7.0
        assert "commit_latency_s.p50" in series
        assert "commit_latency_s.p99" in series
        assert snap["message_totals"] == {"sbc:rbc": 50}
        ((_, p50),) = series["commit_latency_s.p50"]["points"]
        assert p50 == pytest.approx(2.0)
        assert snap["totals"]["events_processed"] == 100
        assert snap["totals"]["ticks"] == 2

    def test_publisher_sees_tick_events(self):
        events = []
        sampler = StreamingSampler(cadence_s=0.25, publisher=events.append)
        sampler.tick(0.0, 0)
        sampler.tick(0.25, 40)
        assert len(events) == 1  # baseline tick publishes nothing
        (event,) = events
        assert event["kind"] == "tick"
        assert event["sim_time"] == 0.25
        assert event["events"] == 40

    def test_ring_capacity_bounds_memory(self):
        sampler = StreamingSampler(cadence_s=0.1, ring_points=8)
        now = 0.0
        for i in range(30):
            sampler.tick(now, i * 10)
            now += 0.1
        series = sampler.snapshot()["series"]["events_per_sec"]
        assert len(series["points"]) == 8
        assert series["dropped"] == 29 - 8  # 29 emitting ticks, ring of 8


class TestExports:
    def _snapshots(self):
        sampler = StreamingSampler(cadence_s=0.5)
        sampler.tick(0.0, 0)
        sampler.count_message("sbc:bin", 10)
        sampler.tick(0.5, 20)
        snap = sampler.snapshot()
        snap["cell"] = "cell-a"
        return [snap]

    def test_jsonl_export_one_point_per_line(self, tmp_path):
        path = tmp_path / "series.jsonl"
        written = len(list(series_rows(self._snapshots())))
        write_jsonl(series_rows(self._snapshots()), path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert written == len(lines) > 0
        assert {line["cell"] for line in lines} == {"cell-a"}
        names = {line["series"] for line in lines}
        assert "events_per_sec" in names
        assert "msgs_per_sec:sbc:bin" in names

    def test_csv_export_is_long_form(self, tmp_path):
        path = tmp_path / "series.csv"
        written = len(list(series_rows(self._snapshots())))
        write_csv(series_rows(self._snapshots()), path, columns=SERIES_COLUMNS)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["cell", "series", "t", "value"]
        assert len(rows) - 1 == written
