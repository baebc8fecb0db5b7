"""Metrics wired through the stack, the scenario runner and the report CLI.

A tiny instrumented family (one fault-free committee cell) keeps the module
fast; the full coalition-attack telemetry (recovery timeline included) runs
once and is shared by the assertions that need it.
"""

import csv
import json
import re

import pytest

from repro import obs
from repro.common.config import FaultConfig
from repro.scenarios import registry, run_system
from repro.scenarios.registry import ScenarioFamily
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import ResultStore
from repro.obs.export import (
    render_report,
    report_rows,
    snapshot_rows,
    telemetry_cells,
    write_csv,
    write_json,
)
from repro.zlb.system import ZLBSystem

TINY_FAMILY = "telemetry-tiny"


def _printed_rows(text):
    """``(cell, type, metric, labels)`` of every row the text report prints,
    its columns cut where the dashes of each table's header rule run."""
    rows = []
    for section in text.split("\n== ")[1:]:
        title, header, rule, *lines = section.splitlines()
        spans = [match.span() for match in re.finditer(r"-+", rule)]
        names = [header[start:end].strip() for start, end in spans]
        for line in lines:
            if not line:
                break
            row = dict(zip(names, (line[start:end].strip() for start, end in spans)))
            rows.append((row["cell"], title.rstrip("= "), row["metric"], row["labels"]))
    return rows


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
            "zlb.phase.rbc_s",
            "zlb.phase.binary_s",
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

    def test_attack_run_records_recovery_gauges(self, attack_snapshot):
        result, snapshot = attack_snapshot
        assert result.recovered
        # A recovery gauge's min is the first time the step happened anywhere.
        first = {
            step: snapshot["gauges"][f"zlb.recovery.{step}_s"]["min"]
            for step in (
                "disagreement", "detected", "exclusion_started", "excluded",
                "included", "merged",
            )
        }
        assert first["detected"] <= first["excluded"] <= first["included"]
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
        assert "== counter ==" in printed and "== histogram ==" in printed
        assert "net.messages_sent" in printed
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

    def test_report_shows_commit_latency_and_recovery_gauges(self, attack_snapshot):
        _, snapshot = attack_snapshot
        rendered = render_report([("fig4 n=9 seed=1", snapshot)])
        assert "zlb.commit_latency_s" in rendered
        assert "zlb.recovery.detected_s" in rendered
        assert "zlb.recovery.included_s" in rendered

    def test_metric_filter_restricts_rows(self, attack_snapshot):
        _, snapshot = attack_snapshot
        cells = [("fig4 n=9 seed=1", snapshot)]
        rows = report_rows(cells, metric_filter="rbc.")
        assert any(row["type"] == "histogram" for row in rows)
        assert all("rbc." in row["metric"] for row in rows)
        rendered = render_report(cells, metric_filter="rbc.")
        assert "== histogram ==" in rendered
        assert "== gauge ==" not in rendered  # zlb.recovery.* is filtered

    @pytest.mark.parametrize("metric_filter", [None, "rbc."])
    def test_text_report_and_csv_carry_the_same_rows(
        self, attack_snapshot, tmp_path, capsys, metric_filter
    ):
        from repro.scenarios.cli import main

        _, snapshot = attack_snapshot
        out = str(tmp_path / "attack.jsonl")
        spec = ScenarioSpec(
            family="fig4",
            n=9,
            attack="binary",
            cross_partition_delay="1000ms",
            instrument="metrics",
        )
        ResultStore(out).put(spec, {}, telemetry=snapshot)
        flags = ["--metric", metric_filter] if metric_filter else []
        assert main(["report", out, *flags]) == 0
        printed = _printed_rows(capsys.readouterr().out)
        csv_path = str(tmp_path / "attack.csv")
        assert main(["report", out, "--csv", csv_path, *flags]) == 0
        capsys.readouterr()
        with open(csv_path, newline="", encoding="utf-8") as handle:
            exported = [
                (row["cell"], row["type"], row["metric"], row["labels"])
                for row in csv.DictReader(handle)
            ]
        assert sorted(printed) == sorted(exported)
        kinds = {kind for _, kind, _, _ in exported}
        if metric_filter is None:
            assert kinds == {"counter", "gauge", "histogram"}
        else:
            assert exported
            assert all(metric_filter in metric for _, _, metric, _ in exported)


class TestExporters:
    def test_snapshot_rows_cover_every_metric_type(self):
        registry_ = obs.TelemetryRegistry()
        registry_.counter("c", protocol="rbc").inc(2)
        registry_.gauge("g").set(4)
        registry_.histogram("h").observe(1.0)
        registry_.sample(0.25)
        rows = snapshot_rows(registry_.snapshot(), cell="cell-a")
        by_type = {row["type"] for row in rows}
        assert by_type == {"counter", "gauge", "histogram"}
        assert all(row["cell"] == "cell-a" for row in rows)
        gauge_row = next(row for row in rows if row["type"] == "gauge")
        assert (gauge_row["metric"], gauge_row["value"]) == ("g", 4)

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

    def test_report_without_telemetry_says_how_to_record_it(self):
        assert "--instrument metrics" in render_report([])

    def test_report_prints_one_table_per_type_in_metric_order(self):
        cells = [
            ("cell-b", {"counters": {"z": 1, "a": 2}, "gauges": {"g": {"value": 1 / 3}}}),
            ("cell-a", {"counters": {"z": 3}}),
        ]
        text = render_report(cells)
        assert text.splitlines()[0] == "telemetry report — 2 instrumented cells"
        assert text.index("== counter ==") < text.index("== gauge ==")
        counter_lines = text.split("== counter ==\n")[1].split("\n\n")[0].splitlines()
        assert [line.split()[:2] for line in counter_lines[2:]] == [
            ["cell-b", "a"],
            ["cell-a", "z"],
            ["cell-b", "z"],
        ]
        assert "0.3333 " in text  # floats are rounded to four places

    def test_report_rows_filter_on_any_part_of_the_metric_name(self):
        cells = [
            ("x", {"counters": {"rbc.deliver": 1, "bin.decide": 2}}),
            ("y", {"histograms": {"rbc.deliver_s": {"count": 1}}}),
        ]
        assert [row["metric"] for row in report_rows(cells, "deliver")] == [
            "rbc.deliver",
            "rbc.deliver_s",
        ]
        assert [row["cell"] for row in report_rows(cells)] == ["x", "x", "y"]
        assert report_rows(cells, "nothing-matches") == []

    def test_report_csv_honours_the_metric_filter(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        out = str(tmp_path / "store.jsonl")
        ResultStore(out).put(
            ScenarioSpec(family="fig4", n=4, seed=1),
            {},
            telemetry={"counters": {"rbc.sent": 4, "bin.sent": 5}},
        )
        csv_path = str(tmp_path / "rows.csv")
        assert main(["report", out, "--metric", "rbc.", "--csv", csv_path]) == 0
        printed = capsys.readouterr().out
        assert "rbc.sent" in printed and "bin.sent" not in printed
        with open(csv_path, newline="", encoding="utf-8") as handle:
            assert [row["metric"] for row in csv.DictReader(handle)] == ["rbc.sent"]

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
