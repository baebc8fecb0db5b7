"""Tests for the paper's figures as registered families, and for the
measurements that are not grid cells.  What the paper states across a
family's cells is its claims (``tests/scenarios/test_claims.py``)."""

from repro.analysis.zero_loss import theoretical_blockdepth_curve
from repro.scenarios import ScenarioSpec, expand, run_specs, run_system
from repro.scenarios.library import merge_two_blocks, run_measured_comparison


class TestSweepConfiguration:
    def test_small_scale_defaults(self):
        assert expand("fig4") == expand("fig4", "small")
        for name in ("fig4", "fig6", "sec53"):
            specs = expand(name, "small")
            assert max(spec.n for spec in specs) <= 20
            assert {spec.seed for spec in specs} == {1}

    def test_full_scale(self):
        assert 90 in {spec.n for spec in expand("fig3", "full")}
        for name in ("fig4", "fig6", "sec53"):
            specs = expand(name, "full")
            assert 100 in {spec.n for spec in specs}
            assert len({spec.seed for spec in specs}) >= 3


class TestFig3Rows:
    def test_rows_cover_all_protocols(self):
        rows = run_specs(expand("fig3", "small"))
        assert {"ZLB", "Polygraph", "HotStuff", "Red Belly"} <= set(rows[0])
        assert [row["n"] for row in rows] == [10, 20, 40, 60, 90]

    def test_measured_sbc_decides_more_per_instance_than_hotstuff(self):
        """The structural reason behind Fig. 3 on the message-level
        implementations: SBC-based chains decide many proposals per
        instance, HotStuff exactly one."""
        results = run_measured_comparison(n=7, transactions=120)
        per_instance = {name: detail["tx_per_instance"] for name, detail in results.items()}
        assert per_instance["ZLB"] > per_instance["HotStuff"]
        assert per_instance["Red Belly"] > per_instance["HotStuff"]


class TestTable1:
    def test_merge_two_blocks_single_call(self):
        assert merge_two_blocks(50) > 0


class TestFig5Catchup:
    def test_the_joiners_catch_up_is_timed_on_the_real_catch_up(self):
        """Fig. 5 (right) on the catch-up the replicas run: every replica the
        membership change included holds the chain, and the row times it from
        the inclusion."""
        spec = ScenarioSpec(family="fig4", n=9, attack="binary", cross_partition_delay="1000ms")
        result = run_system(spec)
        assert result.recovered and len(result.included) == 4
        row = result.to_row()
        assert 0 < row["catchup_time_s"] < row["simulated_time_s"]


class TestFig6Theory:
    def test_curve_monotone(self):
        rows = theoretical_blockdepth_curve()
        depths = [row["min_blockdepth"] for row in rows]
        assert depths == sorted(depths)
