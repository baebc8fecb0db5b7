"""Tests for the paper's figures as registered families (fast paths only;
heavy cells run in benchmarks/)."""

from repro.analysis.zero_loss import theoretical_blockdepth_curve
from repro.scenarios import expand, run_specs
from repro.scenarios.library import merge_two_blocks, run_catchup_timing


class TestSweepConfiguration:
    def test_small_scale_defaults(self):
        assert expand("fig4") == expand("fig4", "small")
        for name in ("fig4", "fig5", "fig6", "sec53"):
            specs = expand(name, "small")
            assert max(spec.n for spec in specs) <= 20
            assert {spec.seed for spec in specs} == {1}

    def test_full_scale(self):
        assert 90 in {spec.n for spec in expand("fig3", "full")}
        for name in ("fig4", "fig5", "fig6", "sec53"):
            specs = expand(name, "full")
            assert 100 in {spec.n for spec in specs}
            assert len({spec.seed for spec in specs}) >= 3


class TestFig3Rows:
    def test_rows_cover_all_protocols(self):
        rows = run_specs(expand("fig3", "small"))
        assert {"ZLB", "Polygraph", "HotStuff", "Red Belly"} <= set(rows[0])
        assert [row["n"] for row in rows] == [10, 20, 40, 60, 90]

    def test_paper_shape(self):
        by_n = {row["n"]: row for row in run_specs(expand("fig3", "small"))}
        assert by_n[90]["Red Belly"] > by_n[90]["ZLB"] > by_n[90]["HotStuff"]
        assert by_n[10]["Polygraph"] > by_n[10]["ZLB"]
        assert by_n[90]["Polygraph"] < by_n[90]["ZLB"]


class TestTable1:
    def test_merge_time_positive_and_monotone(self):
        rows = run_specs(expand("table1", "small"))
        assert [row["blocksize_txs"] for row in rows] == [100, 1_000]
        assert rows[0]["merge_time_ms"] > 0
        assert rows[1]["merge_time_ms"] > rows[0]["merge_time_ms"]

    def test_merge_two_blocks_single_call(self):
        assert merge_two_blocks(50) > 0


class TestFig5Catchup:
    def test_catchup_rows(self):
        rows = run_catchup_timing(sizes=[9], block_counts=(5, 10))
        assert len(rows) == 2
        by_blocks = {row["blocks"]: row["catchup_s"] for row in rows}
        assert by_blocks[10] >= by_blocks[5] * 0.5  # timing noise tolerated


class TestFig6Theory:
    def test_curve_monotone(self):
        rows = theoretical_blockdepth_curve()
        depths = [row["min_blockdepth"] for row in rows]
        assert depths == sorted(depths)


class TestAppendixB:
    def test_rows_match_paper_within_rounding(self):
        by_case = {
            (row["delta"], row["rho"]): row["min_blockdepth"]
            for row in run_specs(expand("appendix-b"))
        }
        assert abs(by_case[(0.5, 0.55)] - 4) <= 1
        assert abs(by_case[(0.5, 0.9)] - 28) <= 1
        assert abs(by_case[(0.6, 0.9)] - 37) <= 1
