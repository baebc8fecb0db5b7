"""CLI surface: list / run / sweep / obs artifacts."""

import dataclasses
import json

import pytest

from repro.scenarios import registry
from repro.scenarios.cli import _instrument_level, build_parser, main


class TestList:
    def test_lists_every_family(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4", "table1", "churn", "crash-recovery", "jitter-stress"):
            assert name in out


class TestRun:
    def test_run_prints_rows(self, capsys):
        assert main(["run", "appendix-b", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "min_blockdepth" in out
        assert "5 cells" in out


class TestSweep:
    def test_sweep_caches_and_reports_hits(self, tmp_path, capsys):
        out_path = str(tmp_path / "results.jsonl")
        assert main(["sweep", "fig3", "appendix-b", "--out", out_path, "--quiet"]) == 0
        first = capsys.readouterr().out
        assert "0 cache hits" in first

        assert main(["sweep", "fig3", "appendix-b", "--out", out_path, "--quiet"]) == 0
        second = capsys.readouterr().out
        assert "fig3: 5 cells — 5 cache hits, 0 executed" in second
        assert "appendix-b: 5 cells — 5 cache hits, 0 executed" in second
        # Claims read cached rows too.
        assert "claim fig3 / ZLB is 4-8x HotStuff at the largest n: holds" in second

    def test_a_failed_claim_is_printed_and_fails_the_run(self, monkeypatch, capsys):
        family = registry.get_family("appendix-b")
        claims = family.claims + (("never holds", lambda rows: f"read {len(rows)} rows"),)
        monkeypatch.setitem(
            registry._REGISTRY, "appendix-b", dataclasses.replace(family, claims=claims)
        )
        assert main(["run", "appendix-b", "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "claim appendix-b / m grows with delta at rho = 0.9: holds" in out
        assert "claim appendix-b / never holds: FAILED: read 5 rows" in out


class TestObsFlags:
    def test_watch_renders_progress_table(self, capsys):
        assert main(["run", "appendix-b", "--watch", "--quiet"]) == 0
        err = capsys.readouterr().err
        assert "cells done" in err

    def test_obs_artifacts_are_written(self, tmp_path, capsys):
        series = tmp_path / "series.jsonl"
        series_csv = tmp_path / "series.csv"
        assert (
            main(
                [
                    "run",
                    "quickstart",
                    "--quiet",
                    "--series-out",
                    str(series),
                    "--series-csv",
                    str(series_csv),
                ]
            )
            == 0
        )
        capsys.readouterr()
        rows = [json.loads(line) for line in series.read_text().splitlines()]
        assert set(rows[0]) == {"cell", "series", "t", "value"}
        assert len(series_csv.read_text().splitlines()) == len(rows) + 1
        names = {row["series"] for row in rows}
        for expected in (
            "net.messages_sent{kind=",
            "mempool.pending{replica=",
            "zlb.commit_latency_s.p50",
            "zlb.commit_latency_s.p99",
            "sim.events_per_sec",
        ):
            assert any(name.startswith(expected) for name in names), expected

    def test_series_export_widens_the_level_to_metrics(self):
        parser = build_parser()

        def level(*argv):
            return _instrument_level(parser.parse_args(["run", "appendix-b", *argv]))

        assert level() == ""
        assert level("--instrument", "trace") == "trace"
        assert level("--series-out", "s.jsonl") == "metrics"
        assert level("--instrument", "metrics", "--series-csv", "s.csv") == "metrics"
        assert level("--instrument", "trace", "--series-csv", "s.csv") == "all"

    def test_the_live_level_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "appendix-b", "--instrument", "live"])
        assert "invalid choice: 'live'" in capsys.readouterr().err

    def test_metrics_snapshots_are_stored_and_cached(self, tmp_path, capsys):
        out_path = str(tmp_path / "results.jsonl")
        argv = ["run", "appendix-b", "--instrument", "metrics", "--out", out_path, "--quiet"]
        assert main(argv) == 0
        capsys.readouterr()
        with open(out_path) as handle:
            records = [json.loads(line) for line in handle]
        assert all("telemetry" in record and "obs" not in record for record in records)
        # Instrumented specs hash differently from bare ones, so the run
        # caches under its own key and a repeat run is served from cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "5 cache hits" in out
