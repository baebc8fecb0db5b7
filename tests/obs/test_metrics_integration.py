"""Metrics wired through the stack, the scenario runner and the report CLI.

A tiny instrumented family (one fault-free committee cell) keeps the module
fast; the full coalition-attack telemetry (recovery timeline included) runs
once and is shared by the assertions that need it.
"""

import json

import pytest

from repro import obs
from repro.common.config import FaultConfig
from repro.scenarios import registry, run_system
from repro.scenarios.registry import ScenarioFamily
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import ResultStore
from repro.obs.export import snapshot_rows, write_csv, write_json
from repro.obs.report import build_tables, render_report, telemetry_cells
from repro.zlb.system import ZLBSystem

TINY_FAMILY = "telemetry-tiny"


def _tiny_grid(scale):
    return [
        ScenarioSpec(
            family=TINY_FAMILY,
            n=4,
            workload_transactions=20,
            batch_size=10,
            instances=1,
            seed=7,
            max_time=60.0,
        )
    ]


def _run_tiny_cell(spec):
    return {"n": spec.n, "committed": run_system(spec).committed_transactions}


@pytest.fixture(autouse=True)
def _register_tiny_family():
    registry.register(
        ScenarioFamily(
            name=TINY_FAMILY,
            description="tiny instrumented committee (test-only)",
            build=_tiny_grid,
            run=_run_tiny_cell,
        )
    )
    yield


@pytest.fixture(scope="module")
def attack_snapshot():
    """One instrumented coalition-attack run (shared across tests)."""
    registry_ = obs.TelemetryRegistry()
    with obs.activate(obs.Probe(metrics=registry_)):
        result = run_system(
            ScenarioSpec(
                family="fig4", n=9, attack="binary", cross_partition_delay="1000ms"
            )
        )
    return result, registry_.snapshot()


class TestStackInstrumentation:
    def test_fault_free_run_records_core_metrics(self):
        system = ZLBSystem.create(
            FaultConfig(n=4),
            seed=3,
            workload_transactions=20,
            batch_size=10,
            probe=obs.Probe(metrics=obs.TelemetryRegistry()),
        )
        result = system.run_instances(1)
        snapshot = result.telemetry
        assert snapshot is not None
        counters = snapshot["counters"]
        assert any(key.startswith("net.messages_sent") for key in counters)
        assert any("protocol=sbc:rbc" in key for key in counters)
        assert any("protocol=sbc:bin" in key for key in counters)
        histograms = snapshot["histograms"]
        for metric in (
            "rbc.deliver_s",
            "consensus.binary.rounds",
            "consensus.sbc.decide_s",
            "asmr.instance_decide_s",
        ):
            assert histograms[metric]["count"] > 0
        for field in ("mean", "ci95", "p50", "p95", "p99"):
            assert field in histograms["rbc.deliver_s"]
        assert any(key.startswith("mempool.pending{") for key in snapshot["gauges"])

    def test_disabled_run_has_no_snapshot(self):
        system = ZLBSystem.create(
            FaultConfig(n=4), seed=3, workload_transactions=10, batch_size=10
        )
        assert system.simulator.probe is None
        result = system.run_instances(1)
        assert result.telemetry is None

    def test_attack_run_records_recovery_timeline(self, attack_snapshot):
        result, snapshot = attack_snapshot
        assert result.recovered
        timeline = snapshot["timelines"]["zlb.recovery"]["first"]
        for mark in ("disagreement", "detected", "exclusion_started", "excluded", "included"):
            assert timeline[mark] is not None
        assert timeline["detected"] <= timeline["excluded"] <= timeline["included"]
        # Membership phases and merge activity were measured too.
        assert snapshot["histograms"]["membership.exclusion_s"]["count"] > 0
        assert snapshot["counters"]["zlb.merges"] > 0
        assert snapshot["histograms"]["net.queue_depth"]["count"] > 0

    def test_attack_messages_by_protocol_and_bytes(self, attack_snapshot):
        _, snapshot = attack_snapshot
        counters = snapshot["counters"]
        sent = {
            key: value
            for key, value in counters.items()
            if key.startswith("net.messages_sent")
        }
        assert any("protocol=excl:rbc" in key for key in sent)
        bytes_sent = {
            key: value
            for key, value in counters.items()
            if key.startswith("net.bytes_sent")
        }
        # Sizes are exact wire-codec frame lengths; every frame carries at
        # least the length header plus the encoded envelope scaffolding.
        for key, value in bytes_sent.items():
            matching = key.replace("net.bytes_sent", "net.messages_sent")
            assert value >= sent[matching] * 32


class TestScenarioIntegration:
    def test_runner_persists_and_replays_snapshot(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        specs = [
            spec.with_overrides(instrument="metrics") for spec in _tiny_grid("small")
        ]
        report = ScenarioRunner(store=store).run(specs)
        outcome = report.outcomes[0]
        assert not outcome.cached
        assert outcome.telemetry is not None
        assert outcome.telemetry["histograms"]["rbc.deliver_s"]["count"] > 0

        # Cache hit serves the stored snapshot.
        replay = ScenarioRunner(store=ResultStore(store.path)).run(specs)
        assert replay.cache_hits == 1
        assert replay.outcomes[0].telemetry == outcome.telemetry

        # The JSONL record itself carries the snapshot (self-describing).
        record = json.loads(open(store.path, encoding="utf-8").readline())
        assert record["telemetry"] == outcome.telemetry

    def test_uninstrumented_cell_stores_no_snapshot(self, tmp_path):
        store = ResultStore(tmp_path / "bare.jsonl")
        ScenarioRunner(store=store).run(_tiny_grid("small"))
        (record,) = store.records()
        assert "telemetry" not in record

    def test_report_cli_renders_tables(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        out = str(tmp_path / "results.jsonl")
        store = ResultStore(out)
        specs = [
            spec.with_overrides(instrument="metrics") for spec in _tiny_grid("small")
        ]
        ScenarioRunner(store=store).run(specs)

        csv_path = str(tmp_path / "metrics.csv")
        json_path = str(tmp_path / "metrics.json")
        assert main(["report", out, "--csv", csv_path, "--json", json_path]) == 0
        printed = capsys.readouterr().out
        assert "messages by protocol" in printed
        assert "latency histograms" in printed
        assert "rbc.deliver_s" in printed
        header = open(csv_path, encoding="utf-8").readline()
        assert header.startswith("cell,type,metric")
        exported = json.load(open(json_path, encoding="utf-8"))
        assert isinstance(exported, list) and exported[0]["histograms"]

    def test_report_cli_without_telemetry_explains(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        out = str(tmp_path / "bare.jsonl")
        ScenarioRunner(store=ResultStore(out)).run(_tiny_grid("small"))
        assert main(["report", out]) == 0
        assert "no telemetry" in capsys.readouterr().out

    def test_report_csv_keeps_cells_differing_only_in_params_apart(
        self, tmp_path, capsys
    ):
        from repro.scenarios.cli import main

        out = str(tmp_path / "churn.jsonl")
        store = ResultStore(out)
        base = ScenarioSpec(family="churn", n=4, seed=1, instrument="metrics")
        for rounds in (2, 3):
            store.put(
                base.with_overrides(params={"rounds": rounds}),
                {},
                telemetry={"counters": {"zlb.merges": rounds}},
            )
        csv_path = str(tmp_path / "churn.csv")
        assert main(["report", out, "--csv", csv_path]) == 0
        capsys.readouterr()
        lines = open(csv_path, encoding="utf-8").read().splitlines()[1:]
        cells = {line.split(",")[0] for line in lines}
        assert cells == {
            "churn n=4 rounds=2 seed=1 metrics",
            "churn n=4 rounds=3 seed=1 metrics",
        }

    def test_run_renders_inline_telemetry_under_the_spec_label(self, capsys):
        from repro.scenarios.cli import main

        assert main(["run", TINY_FAMILY, "--instrument", "metrics", "--quiet"]) == 0
        printed = capsys.readouterr().out
        assert "telemetry report — 1 instrumented cells" in printed
        assert "telemetry-tiny n=4 seed=7 metrics" in printed

    def test_metric_filter_restricts_histograms(self, attack_snapshot):
        _, snapshot = attack_snapshot
        records = [
            {"family": "fig4", "label": "fig4 n=9 seed=1",
             "spec": {"family": "fig4", "n": 9, "seed": 1}, "telemetry": snapshot}
        ]
        tables = dict(build_tables(records, metric_filter="rbc."))
        histogram_rows = tables["latency histograms (s)"]
        assert histogram_rows
        assert all(row["metric"].startswith("rbc.") for row in histogram_rows)
        rendered = render_report(records, metric_filter="rbc.")
        assert "timelines" in rendered  # timelines are not filtered away


class TestExporters:
    def test_snapshot_rows_cover_every_metric_type(self):
        registry_ = obs.TelemetryRegistry()
        registry_.counter("c", protocol="rbc").inc(2)
        registry_.gauge("g").set(4)
        registry_.histogram("h").observe(1.0)
        registry_.timeline("t").mark("start", 0.5)
        rows = snapshot_rows(registry_.snapshot(), cell="cell-a")
        by_type = {row["type"] for row in rows}
        assert by_type == {"counter", "gauge", "histogram", "timeline"}
        assert all(row["cell"] == "cell-a" for row in rows)
        timeline_row = next(row for row in rows if row["type"] == "timeline")
        assert timeline_row["metric"] == "t.start"
        assert timeline_row["value"] == 0.5

    def test_write_json_and_csv(self, tmp_path):
        registry_ = obs.TelemetryRegistry()
        registry_.histogram("lat").observe(2.0)
        json_path = write_json(registry_.snapshot(), tmp_path / "snap.json")
        loaded = json.load(open(json_path, encoding="utf-8"))
        assert loaded["histograms"]["lat"]["count"] == 1
        csv_path = write_csv(
            snapshot_rows(registry_.snapshot(), cell="x"), tmp_path / "snap.csv"
        )
        lines = open(csv_path, encoding="utf-8").read().splitlines()
        assert len(lines) == 2 and lines[1].startswith("x,histogram,lat")

    def test_telemetry_cells_skips_bare_records(self):
        records = [
            {"family": "a", "label": "a seed=1", "spec": {"family": "a"}},
            {"family": "b", "label": "b n=3 seed=1", "spec": {"family": "b", "n": 3},
             "telemetry": {"counters": {"c": 1}}},
        ]
        cells = telemetry_cells(records)
        assert len(cells) == 1
        assert cells[0][0].startswith("b")

    def test_telemetry_cells_fall_back_to_the_spec_hash(self):
        records = [
            {"family": "a", "hash": "3f9c", "spec": {"family": "a"},
             "telemetry": {"counters": {"c": 1}}},
        ]
        assert telemetry_cells(records) == [("3f9c", {"counters": {"c": 1}})]

    def test_cells_differing_only_in_params_get_distinct_labels(self, tmp_path):
        store = ResultStore(str(tmp_path / "churn.jsonl"))
        base = ScenarioSpec(family="churn", n=4, seed=1)
        for rounds in (2, 3):
            store.put(
                base.with_overrides(params={"rounds": rounds}),
                {},
                telemetry={"counters": {"c": rounds}},
            )
        labels = [label for label, _ in telemetry_cells(store.records())]
        assert len(labels) == 2 and len(set(labels)) == 2
        assert "rounds=2" in labels[0] and "rounds=3" in labels[1]
