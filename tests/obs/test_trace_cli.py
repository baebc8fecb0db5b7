"""The ``trace`` subcommand, spec/runner integration and logging wiring."""

import json
import logging

import pytest

from repro.scenarios import registry
from repro.scenarios.cli import main
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.store import ResultStore


class TestRunnerTracePersistence:
    def test_trace_summary_persisted_and_cache_served(self, tmp_path):
        path = tmp_path / "results.jsonl"
        spec = registry.expand("fig3", "small")[0].with_overrides(instrument="trace")

        first = ScenarioRunner(store=ResultStore(path)).run([spec])
        outcome = first.outcomes[0]
        assert not outcome.cached
        assert isinstance(outcome.trace, dict)
        assert {"traces", "spans", "events"} <= set(outcome.trace)

        # The JSONL record carries the summary verbatim.
        record = json.loads(path.read_text().strip().splitlines()[-1])
        assert record["trace"] == outcome.trace

        second = ScenarioRunner(store=ResultStore(path)).run([spec])
        assert second.outcomes[0].cached
        assert second.outcomes[0].trace == outcome.trace

    def test_untraced_cells_carry_no_trace(self, tmp_path):
        path = tmp_path / "results.jsonl"
        spec = registry.expand("fig3", "small")[0]
        report = ScenarioRunner(store=ResultStore(path)).run([spec])
        assert report.outcomes[0].trace is None
        record = json.loads(path.read_text().strip().splitlines()[-1])
        assert "trace" not in record


class TestTraceSubcommand:
    def test_traced_quickstart_cell(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        tree = tmp_path / "tree.json"
        dump = tmp_path / "flight.jsonl"
        code = main(
            [
                "trace",
                "quickstart",
                "--out",
                str(out),
                "--tree",
                str(tree),
                "--dump",
                str(dump),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "dominant phase:" in captured.out
        assert "invariant monitors: all green" in captured.out
        # Monitors stayed green → no flight-recorder dump.
        assert not dump.exists()

        chrome = json.loads(out.read_text())
        assert chrome["traceEvents"]
        phases = {event["ph"] for event in chrome["traceEvents"]}
        assert "X" in phases  # spans
        assert "i" in phases  # point events
        names = {event["name"] for event in chrome["traceEvents"]}
        assert "zlb.commit" in names

        spans = json.loads(tree.read_text())
        assert spans  # per-transaction span trees, roots at depth 0
        assert all("children" in root for root in spans)

    def test_a_violation_exits_1_and_dumps_the_flight_recorder(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.common.config import FaultConfig
        from repro.ledger.utxo import UTXO
        from repro.zlb.system import ZLBSystem

        def forged_cell(spec):
            # The traced probe is active here: create attaches its recorder.
            system = ZLBSystem.create(FaultConfig(n=4), workload_transactions=40)
            system.replicas[1].blockchain.record.utxos.add(
                UTXO(utxo_id="forged:0", account="mallory", amount=5)
            )
            return system.run_instances(1).to_row()

        monkeypatch.setattr(registry, "run_spec", forged_cell)
        dump = tmp_path / "flight.jsonl"
        out = tmp_path / "t.json"
        code = main(["trace", "quickstart", "--out", str(out), "--dump", str(dump)])
        err = capsys.readouterr().err
        assert code == 1
        assert "invariant monitors: VIOLATED" in err
        assert "[supply-conservation]" in err and "replica=1:" in err
        header = json.loads(dump.read_text().splitlines()[0])
        assert header["header"] == "flight-dump" and header["recorded"] > 0

    def test_cell_index_out_of_range(self, capsys):
        code = main(["trace", "quickstart", "--cell", "99"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err


class TestLoggingWiring:
    def test_run_accepts_log_level(self, capsys):
        code = main(["run", "fig3", "--quiet", "--log-level", "warning"])
        assert code == 0
        assert logging.getLogger("repro").level == logging.WARNING

    def test_unknown_log_level_is_a_cli_error(self, capsys):
        code = main(["run", "fig3", "--quiet", "--log-level", "loud"])
        assert code == 2
        assert "unknown log level" in capsys.readouterr().err

    def test_replica_logger_prefixes_time_and_replica(self):
        from repro.common.config import SimulationConfig
        from repro.common.logging import replica_logger
        from repro.network.simulator import NetworkSimulator, Process

        simulator = NetworkSimulator(config=SimulationConfig(seed=1))
        process = Process(7)
        simulator.add_process(process)
        message, _ = process.log.process("hello", {})
        assert message.startswith("[t=0.000000s r=7]")

    def test_replica_logger_includes_active_trace(self):
        from repro.common.config import SimulationConfig
        from repro.network.simulator import NetworkSimulator, Process
        from repro.obs import Probe, TraceRuntime

        runtime = TraceRuntime.enabled()
        simulator = NetworkSimulator(
            config=SimulationConfig(seed=1), probe=Probe(trace=runtime)
        )
        process = Process(3)
        simulator.add_process(process)
        span = runtime.tracer.start_trace("root", replica=3, at=0.0)
        previous = runtime.tracer.activate(span.ctx)
        try:
            message, _ = process.log.process("hello", {})
        finally:
            runtime.tracer.restore(previous)
        assert f"trace=t{span.trace_id}:s{span.span_id}" in message
