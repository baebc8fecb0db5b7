"""Declarative SLO gates: evaluation semantics and CLI exit codes."""

import json

import pytest

from repro.obs.gates import (
    SLO,
    evaluate_record,
    evaluate_records,
    parse_slo_overrides,
    render_gate_report,
)
from repro.scenarios.cli import main


class TestSLO:
    def test_checks_lists_only_declared_objectives(self):
        slo = SLO(min_events_per_sec=100.0)
        assert slo.checks() == [("min_events_per_sec", 100.0, "min")]

    def test_merged_overrides_one_limit(self):
        slo = SLO(min_events_per_sec=100.0, max_host_seconds=60.0)
        merged = slo.merged({"min_events_per_sec": 1e9})
        assert merged.min_events_per_sec == 1e9
        assert merged.max_host_seconds == 60.0

    def test_merged_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown SLO metric"):
            SLO().merged({"max_cpu_pct": 1.0})


def _record(wall=1.0, obs=None):
    record = {
        "hash": "h",
        "family": "fam",
        "label": "fam cell",
        "row": {},
        "wall_clock_s": wall,
    }
    if obs is not None:
        record["obs"] = obs
    return record


class TestEvaluation:
    def test_host_seconds_checked_even_without_obs(self):
        checks = evaluate_record("fam", _record(wall=5.0), SLO(max_host_seconds=2.0))
        (check,) = checks
        assert check.status == "breach"
        assert check.observed == 5.0

    def test_rate_and_latency_skip_without_obs_never_pass_silently(self):
        slo = SLO(min_events_per_sec=1.0, max_p99_commit_s=1.0)
        checks = evaluate_record("fam", _record(), slo)
        assert [check.status for check in checks] == ["skipped", "skipped"]
        assert all(check.reason for check in checks)

    def test_obs_totals_and_quantiles_feed_the_gate(self):
        obs = {
            "totals": {"events_per_sec": 500.0},
            "quantiles": {"commit_latency_s": {"count": 10, "p99": 3.0}},
        }
        slo = SLO(min_events_per_sec=1_000.0, max_p99_commit_s=2.0)
        checks = {c.metric: c for c in evaluate_record("fam", _record(obs=obs), slo)}
        assert checks["min_events_per_sec"].status == "breach"
        assert checks["min_events_per_sec"].observed == 500.0
        assert checks["max_p99_commit_s"].status == "breach"
        assert checks["max_p99_commit_s"].observed == 3.0

    def test_families_without_slo_are_not_checked(self):
        report = evaluate_records({}, [_record()])
        assert report.checks == []
        assert report.ok

    def test_render_mentions_breaches_and_skips(self):
        slo = SLO(min_events_per_sec=1.0, max_host_seconds=0.5)
        report = evaluate_records({"fam": slo}, [_record(wall=2.0)])
        text = render_gate_report(report)
        assert "breach" in text
        assert "skipped" in text
        assert "1 breach(es), 1 skipped" in text


class TestOverrideParsing:
    def test_parses_family_metric_value(self):
        overrides = parse_slo_overrides(
            ["fig4:min_events_per_sec=1e12", "fig4:max_host_seconds=9"]
        )
        assert overrides == {
            "fig4": {"min_events_per_sec": 1e12, "max_host_seconds": 9.0}
        }

    @pytest.mark.parametrize(
        "item", ["fig4", "fig4:min_events_per_sec", "min_events_per_sec=3"]
    )
    def test_rejects_malformed_items(self, item):
        with pytest.raises(ValueError, match="malformed SLO override"):
            parse_slo_overrides([item])

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown SLO metric"):
            parse_slo_overrides(["fig4:max_cpu_pct=1"])


class TestGateCLI:
    """End-to-end: run a real family, gate it, inject a violation."""

    @pytest.fixture()
    def store_path(self, tmp_path, capsys):
        path = str(tmp_path / "results.jsonl")
        # fig3 is the analytical throughput model: five sub-second cells,
        # and the family declares a max_host_seconds SLO.
        assert main(["run", "fig3", "--out", path, "--quiet"]) == 0
        capsys.readouterr()
        return path

    def test_gate_passes_on_healthy_store(self, store_path, capsys):
        assert main(["report", store_path, "--gate"]) == 0
        out = capsys.readouterr().out
        assert "0 breach(es)" in out

    def test_injected_violation_exits_nonzero(self, store_path, capsys):
        code = main(
            ["report", store_path, "--gate", "--slo", "fig3:max_host_seconds=1e-9"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "breach" in out

    def test_cells_without_obs_report_skipped_checks(self, tmp_path, capsys):
        # A fig4 record recorded without the live level: the rate/latency objectives
        # must surface as skipped (with a reason), not silently pass.
        path = tmp_path / "results.jsonl"
        record = {
            "hash": "deadbeef",
            "family": "fig4",
            "label": "fig4 synthetic",
            "spec": {},
            "row": {},
            "wall_clock_s": 1.0,
        }
        path.write_text(json.dumps(record) + "\n")
        assert main(["report", str(path), "--gate"]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out
        assert "re-run with --instrument live" in out
