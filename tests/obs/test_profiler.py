"""Host-CPU profiler: attribution, nesting, reports.

The profiler's acceptance property is that on a workload whose hot sections
are all instrumented, the per-bucket self times reconstruct the measured
wall time — nothing double-counted (nested sections subtract child time from
the parent's self time) and nothing lost (attribution stays near 100%).
"""

import json
import time

from repro.obs.export import write_json
from repro.obs.profiler import HostProfiler, render_report


def _spin(seconds: float) -> None:
    """Burn CPU (not sleep) so self-time really is host CPU."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class TestAttribution:
    def test_synthetic_workload_attribution_matches_wall_time(self):
        """Self times of instrumented sections ≈ the wall clock of the run."""
        profiler = HostProfiler()
        start_ns = time.perf_counter_ns()
        with profiler.section("outer"):
            _spin(0.05)
            with profiler.section("inner"):
                _spin(0.05)
        wall_ns = time.perf_counter_ns() - start_ns

        report = profiler.report(wall_ns=wall_ns)
        # Everything ran inside sections, so attribution must be near-total
        # (comfortably above the 80% acceptance bar for real runs).
        assert report["attributed_pct"] > 0.95
        total_self_s = report["total_self_ms"] / 1000.0
        assert abs(total_self_s - wall_ns / 1e9) < 0.01

    def test_nested_sections_split_self_and_cumulative(self):
        profiler = HostProfiler()
        with profiler.section("outer"):
            _spin(0.03)
            with profiler.section("inner"):
                _spin(0.03)

        buckets = {b["bucket"]: b for b in profiler.report()["buckets"]}
        outer, inner = buckets["outer"], buckets["inner"]
        # Outer's cumulative covers both spins; its self time excludes inner.
        assert outer["cum_ms"] >= outer["self_ms"] + inner["self_ms"] * 0.9
        assert abs(outer["self_ms"] - inner["self_ms"]) < outer["cum_ms"] * 0.4
        assert inner["self_ms"] == inner["cum_ms"]

    def test_call_counts_accumulate(self):
        profiler = HostProfiler()
        for _ in range(7):
            profiler.enter("bucket")
            profiler.exit()
        report = profiler.report()
        (bucket,) = report["buckets"]
        assert bucket["calls"] == 7


class TestReport:
    def _profile(self) -> HostProfiler:
        profiler = HostProfiler()
        for name in ("a", "b", "c"):
            with profiler.section(name):
                _spin(0.002)
        return profiler

    def test_top_n_truncates_and_counts_the_rest(self):
        report = self._profile().report(top=2)
        assert len(report["buckets"]) == 2
        assert report["truncated_buckets"] == 1

    def test_render_lists_buckets_and_attribution(self):
        report = self._profile().report(wall_ns=10_000_000)
        text = render_report(report, title="synthetic")
        assert "synthetic" in text
        for name in ("a", "b", "c"):
            assert name in text
        assert "attributed" in text

    def test_write_report_is_valid_json(self, tmp_path):
        path = tmp_path / "profile.json"
        write_json({"cell": "synthetic", "profile": self._profile().report()}, path)
        payload = json.loads(path.read_text())
        assert payload["cell"] == "synthetic"
        names = {b["bucket"] for b in payload["profile"]["buckets"]}
        assert names == {"a", "b", "c"}

    def test_empty_profiler_reports_zero(self):
        report = HostProfiler().report(wall_ns=1_000_000)
        assert report["buckets"] == []
        assert report["attributed_pct"] == 0.0
