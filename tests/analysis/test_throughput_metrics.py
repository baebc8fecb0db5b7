"""Unit tests for the throughput model and metrics helpers."""

import pytest

from repro.analysis.metrics import format_table, summarize_latencies
from repro.analysis.throughput import (
    ProtocolCostModel,
    ThroughputModel,
    available_protocols,
    protocol_model,
)
from repro.common.config import FaultConfig
from repro.common.errors import ConfigurationError
from repro.zlb.system import SystemResult


class TestProtocolCostModel:
    def test_lookup_aliases(self):
        assert protocol_model("ZLB").name == "ZLB"
        assert protocol_model("red belly").name == "Red Belly"
        assert protocol_model("Libra").name == "HotStuff"
        with pytest.raises(ConfigurationError):
            protocol_model("bitcoin")

    def test_sbc_throughput_grows_with_n(self):
        model = ThroughputModel()
        assert model.throughput("ZLB", 90) > model.throughput("ZLB", 10)
        assert model.throughput("Red Belly", 90) > model.throughput("Red Belly", 10)

    def test_hotstuff_throughput_flat_or_declining(self):
        model = ThroughputModel()
        assert model.throughput("HotStuff", 90) <= model.throughput("HotStuff", 10)

    def test_figure3_ordering_at_90(self):
        model = ThroughputModel()
        series = {p: model.throughput(p, 90) for p in available_protocols()}
        assert series["Red Belly"] > series["ZLB"] > series["Polygraph"] > series["HotStuff"]
        assert 4.0 <= series["ZLB"] / series["HotStuff"] <= 8.0

    def test_polygraph_crossover(self):
        model = ThroughputModel()
        assert model.throughput("Polygraph", 10) > model.throughput("ZLB", 10)
        assert model.throughput("Polygraph", 90) < model.throughput("ZLB", 90)

    def test_invalid_committee_size(self):
        with pytest.raises(ConfigurationError):
            ProtocolCostModel(name="x", decides_all_proposals=True).instance_latency(
                0, 0.01
            )

    def test_figure3_series_shape(self):
        rows = ThroughputModel().figure3([10, 50, 90])
        assert set(rows) == set(available_protocols())
        assert all(len(v) == 3 for v in rows.values())


def _result(simulated_time=2.0, committed=100, **overrides):
    fields = dict(
        n=4,
        fault_config=FaultConfig(n=4),
        simulated_time=simulated_time,
        messages_sent=0,
        messages_delivered=0,
        per_replica={},
        disagreeing_pairs=set(),
        disagreement_instances=set(),
        detect_time=None,
        exclusion_time=None,
        inclusion_time=None,
        excluded=[],
        included=[],
        final_committee=[0, 1, 2, 3],
        committed_transactions=committed,
        deposit_shortfall=0,
    )
    return SystemResult(**{**fields, **overrides})


class TestMetrics:
    def test_summarize_latencies(self):
        summary = summarize_latencies([1.0, 2.0, 3.0])
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["count"] == 3
        assert summary["ci95"] > 0

    def test_summarize_empty_and_single(self):
        assert summarize_latencies([])["count"] == 0
        single = summarize_latencies([5.0])
        assert single["std"] == 0.0 and single["ci95"] == 0.0

    def test_run_metrics_throughput(self):
        assert _result(2.0, 100).throughput_tx_per_sec == 50.0
        assert _result(0.0, 0).throughput_tx_per_sec == 0.0
        row = _result(2.0, 100).to_row()
        assert row["n"] == 4 and row["throughput_tx_s"] == 50.0
        assert row["decided_instances"] == 0 and row["detect_time_s"] is None

    def test_row_columns_keep_their_published_order(self):
        # Every deploying family's table and first_cell_rows.json read these
        # columns in this order.
        assert list(_result().to_row()) == [
            "n",
            "deceitful",
            "benign",
            "simulated_time_s",
            "decided_instances",
            "committed_transactions",
            "throughput_tx_s",
            "disagreements",
            "disagreement_instances",
            "detect_time_s",
            "exclusion_time_s",
            "inclusion_time_s",
            "excluded_replicas",
            "included_replicas",
            "deposit_shortfall",
            "realized_gain",
            "seized_deposit",
            "attacker_net_gain",
            "violations",
        ]

    def test_row_rounds_recovery_times_to_the_millisecond(self):
        row = _result(
            simulated_time=1.23456, detect_time=0.12345, exclusion_time=0.5
        ).to_row()
        assert row["simulated_time_s"] == 1.235
        assert row["detect_time_s"] == 0.123
        assert row["exclusion_time_s"] == 0.5
        assert row["inclusion_time_s"] is None

    @pytest.mark.parametrize(
        "realized, seized, shortfall, net_gain, zero_loss",
        [
            (0, 0, 0, 0, True),
            (100, 500, 0, -400, True),
            (500, 500, 0, 0, True),
            (600, 500, 0, 100, False),
            (0, 500, 10, -500, False),
        ],
    )
    def test_zero_loss_is_net_gain_and_shortfall(
        self, realized, seized, shortfall, net_gain, zero_loss
    ):
        result = _result(
            realized_gain=realized, seized_deposit=seized, deposit_shortfall=shortfall
        )
        assert result.attacker_net_gain == net_gain
        assert result.to_row()["attacker_net_gain"] == net_gain
        assert result.zero_loss is zero_loss

    def test_format_table(self):
        table = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        assert "a" in table and "22" in table
        assert format_table([]) == "(no rows)"
