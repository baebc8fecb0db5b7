"""CLI surface: list / run / sweep / obs artifacts."""

import json

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
                    "appendix-b",
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
        assert series.exists() and series_csv.exists()

    def test_series_export_widens_the_level_to_the_live_plane(self):
        parser = build_parser()

        def level(*argv):
            return _instrument_level(parser.parse_args(["run", "appendix-b", *argv]))

        assert level() == ""
        assert level("--instrument", "trace") == "trace"
        assert level("--series-out", "s.jsonl") == "live"
        assert level("--instrument", "live", "--series-csv", "s.csv") == "live"
        assert level("--instrument", "metrics", "--series-csv", "s.csv") == "all"

    def test_obs_snapshots_are_stored_and_cached(self, tmp_path, capsys):
        out_path = str(tmp_path / "results.jsonl")
        assert main(["run", "appendix-b", "--instrument", "live", "--out", out_path, "--quiet"]) == 0
        capsys.readouterr()
        with open(out_path) as handle:
            records = [json.loads(line) for line in handle]
        assert all("obs" in record for record in records)
        # Obs-enabled specs hash differently from bare ones, so the obs run
        # caches under its own key and a repeat run is served from cache.
        assert main(["run", "appendix-b", "--instrument", "live", "--out", out_path, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "5 cache hits" in out
