"""Runner execution modes and store cache behavior.

The serial-vs-parallel equality test uses cheap families (``fig3`` and
``appendix-b``) so the whole module stays fast.
"""

import json

from repro.scenarios import registry
from repro.scenarios.runner import ScenarioRunner, run_specs
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import ResultStore


def _cheap_specs():
    return registry.expand("fig3", "small") + registry.expand("appendix-b", "small")


class TestRunner:
    def test_serial_and_parallel_rows_identical(self):
        specs = _cheap_specs()
        serial = ScenarioRunner(jobs=1).run(specs)
        parallel = ScenarioRunner(jobs=2).run(specs)
        assert serial.rows == parallel.rows
        assert serial.executed == parallel.executed == len(specs)

    def test_outcomes_preserve_input_order(self):
        specs = list(reversed(_cheap_specs()))
        report = ScenarioRunner(jobs=2).run(specs)
        assert [outcome.spec for outcome in report.outcomes] == specs

    def test_progress_callback_sees_every_cell(self):
        specs = registry.expand("appendix-b", "small")
        seen = []
        runner = ScenarioRunner(
            progress=lambda outcome, done, total: seen.append((done, total))
        )
        runner.run(specs)
        assert seen == [(i + 1, len(specs)) for i in range(len(specs))]

    def test_wall_clock_accounted(self):
        report = ScenarioRunner().run(registry.expand("fig3", "small"))
        assert report.wall_clock_s >= 0
        assert all(outcome.wall_clock_s >= 0 for outcome in report.outcomes)

    def test_run_specs_returns_plain_rows(self):
        rows = run_specs(registry.expand("appendix-b", "small"))
        assert all(isinstance(row, dict) for row in rows)
        assert len(rows) == 5


class TestStoreCaching:
    def test_second_sweep_is_all_cache_hits(self, tmp_path):
        path = tmp_path / "results.jsonl"
        specs = _cheap_specs()

        first = ScenarioRunner(store=ResultStore(path)).run(specs)
        assert first.cache_hits == 0
        assert first.executed == len(specs)

        second = ScenarioRunner(store=ResultStore(path)).run(specs)
        assert second.cache_hits == len(specs)
        assert second.executed == 0
        assert second.rows == first.rows

    def test_a_cache_hit_carries_the_stored_wall_clock(self, tmp_path):
        """What a cached cell took when it ran, not 0: a claim on wall clock
        must read a measurement on a resumed sweep."""
        path = tmp_path / "results.jsonl"
        specs = registry.expand("table1", "small")[:1]
        ScenarioRunner(store=ResultStore(path)).run(specs)
        stored = ResultStore(path).get(specs[0])["wall_clock_s"]

        (outcome,) = ScenarioRunner(store=ResultStore(path)).run(specs).outcomes
        assert outcome.cached
        assert stored > 0
        assert outcome.wall_clock_s == stored

    def test_partial_cache_runs_only_missing_cells(self, tmp_path):
        path = tmp_path / "results.jsonl"
        specs = registry.expand("appendix-b", "small")
        ScenarioRunner(store=ResultStore(path)).run(specs[:2])

        report = ScenarioRunner(store=ResultStore(path)).run(specs)
        assert report.cache_hits == 2
        assert report.executed == len(specs) - 2

    def test_store_round_trips_spec_and_row(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        spec = ScenarioSpec(family="fig3", n=10, seed=0, instances=0)
        store.put(spec, {"n": 10, "ZLB": 1.0}, wall_clock_s=0.5)

        reloaded = ResultStore(path)
        record = reloaded.get(spec)
        assert record["row"] == {"n": 10, "ZLB": 1.0}
        assert ScenarioSpec.from_dict(record["spec"]) == spec
        assert spec in reloaded

    def test_last_record_wins_and_torn_lines_tolerated(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        spec = ScenarioSpec(family="fig3", n=10, seed=0, instances=0)
        store.put(spec, {"v": 1})
        store.put(spec, {"v": 2})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"hash": "truncat')  # killed mid-write
        reloaded = ResultStore(path)
        assert reloaded.get(spec)["row"] == {"v": 2}
        assert len(reloaded) == 1

    def test_rows_filter_by_family(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put(ScenarioSpec(family="fig3", n=10), {"n": 10})
        store.put(ScenarioSpec(family="table1", params={"blocksize": 100}), {"b": 100})
        assert store.rows("fig3") == [{"n": 10}]
        assert len(store.rows()) == 2

    def test_jsonl_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ScenarioRunner(store=ResultStore(path)).run(
            registry.expand("appendix-b", "small")
        )
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert len(records) == 5
        assert all({"hash", "family", "spec", "row"} <= set(r) for r in records)
