"""Flight recorder and online invariant monitors."""

import json

import pytest

from repro.common.config import FaultConfig
from repro.network.message import Message
from repro.obs.core import Probe
from repro.obs.monitors import MonitorSet
from repro.obs.trace import TraceContext, TraceRuntime
from repro.obs.recorder import REPORT_CLOCK, FlightRecorder, merge_worker_events


class TestFlightRecorder:
    def test_capacity_bounds_per_replica_buffers(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(10):
            recorder.record(float(i), replica=0, kind="timer", detail=f"e{i}")
        assert len(recorder) == 3
        assert recorder.recorded == 10
        # Oldest events were evicted; the last three survive.
        assert [event["detail"] for event in recorder.events()] == ["e7", "e8", "e9"]

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_events_merge_replicas_in_causal_order(self):
        recorder = FlightRecorder()
        # Interleave replicas with out-of-order insertion times per buffer.
        recorder.record(2.0, replica=1, kind="send", detail="late")
        recorder.record(1.0, replica=0, kind="send", detail="early")
        recorder.record(2.0, replica=0, kind="deliver", detail="tie-second")
        merged = recorder.events()
        assert [event["detail"] for event in merged] == [
            "early",
            "late",
            "tie-second",
        ]
        # Ties on time break by global sequence — insertion (causal) order in
        # the single-threaded simulator.
        assert merged[1]["seq"] < merged[2]["seq"]

    def test_record_message_uses_describe_and_trace(self):
        recorder = FlightRecorder()
        message = Message(sender=0, recipient=1, protocol="p", kind="K")
        message.trace_ctx = TraceContext(trace_id=3, span_id=9)
        recorder.record_message(0.5, replica=0, kind="send", message=message)
        event = recorder.events()[0]
        assert event["trace"] == "t3:s9"
        assert "K" in event["detail"]
        rendered = recorder.render()
        # The trace id shows up exactly once per line (describe embeds it).
        assert rendered.count("t3:s9") == 1

    def test_dump_jsonl_round_trips(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record(1.0, replica=0, kind="send", detail="a")
        recorder.record(2.0, replica=1, kind="deliver", detail="b")
        path = recorder.dump_jsonl(tmp_path / "dump.jsonl")
        header, *lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert header == {
            "header": "flight-dump",
            "recorded": 2,
            "retained": 2,
            "evicted": 0,
            "skipped": 0,
        }
        assert [line["detail"] for line in lines] == ["a", "b"]
        assert lines[0]["t"] <= lines[1]["t"]

    def test_dump_header_reports_exact_eviction(self, tmp_path):
        # A truncated forensic dump must say it is truncated, and by how much.
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record(float(i), replica=0, kind="timer", detail=f"e{i}")
        assert recorder.evicted == 6
        path = recorder.dump_jsonl(tmp_path / "dump.jsonl")
        header, *events = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert header == {
            "header": "flight-dump",
            "recorded": 10,
            "retained": 4,
            "evicted": 6,
            "skipped": 0,
        }
        assert [event["detail"] for event in events] == ["e6", "e7", "e8", "e9"]


class TestMergeWorkerEvents:
    """One merge serves flight events, report spans and trace events."""

    def test_flight_events_keep_worker_time_and_gain_cluster_time(self):
        merged = merge_worker_events(
            {
                0: [{"seq": 1, "t": 10.0}, {"seq": 2, "t": 12.0}],
                1: [{"seq": 1, "t": 6.0}],
            },
            offsets={0: 1000.0, 1: 1005.0},
        )
        assert [(e["worker"], e["t"], e["t_cluster"]) for e in merged] == [
            (0, 10.0, 0.0),
            (1, 6.0, 1.0),
            (0, 12.0, 2.0),
        ]

    def test_report_records_shift_onto_one_zero(self):
        merged = merge_worker_events(
            {
                0: [
                    {"name": "span", "start": 10.0, "end": 11.0},
                    {"name": "event", "t": 10.5},
                ],
                1: [{"name": "span", "start": 7.0, "end": 9.0}],
            },
            offsets={0: 100.0, 1: 104.0},
            clock=REPORT_CLOCK,
        )
        assert [(r["worker"], r["name"]) for r in merged] == [
            (0, "span"),
            (0, "event"),
            (1, "span"),
        ]
        assert (merged[0]["start"], merged[0]["end"]) == (0.0, 1.0)
        assert merged[1]["t"] == 0.5
        assert (merged[2]["start"], merged[2]["end"]) == (1.0, 3.0)
        assert all("t_cluster" not in record for record in merged)

    def test_an_open_span_keeps_no_end(self):
        (span,) = merge_worker_events(
            {0: [{"start": 5.0, "end": None}]}, {0: 1.0}, clock=REPORT_CLOCK
        )
        assert span == {"start": 0.0, "end": None, "worker": 0}

    def test_ties_break_by_worker_then_seq(self):
        merged = merge_worker_events(
            {
                1: [{"seq": 2, "t": 1.0}, {"seq": 1, "t": 1.0}],
                0: [{"seq": 5, "t": 1.0}],
            }
        )
        assert [(e["worker"], e["seq"]) for e in merged] == [(0, 5), (1, 1), (1, 2)]

    def test_the_workers_records_are_left_untouched(self):
        flight = {0: [{"seq": 1, "t": 3.0}]}
        spans = {0: [{"start": 3.0, "end": 4.0}]}
        merge_worker_events(flight, {0: 2.0})
        merge_worker_events(spans, {0: 2.0}, clock=REPORT_CLOCK)
        assert flight == {0: [{"seq": 1, "t": 3.0}]}
        assert spans == {0: [{"start": 3.0, "end": 4.0}]}

    def test_nothing_to_merge(self):
        assert merge_worker_events({}) == []
        assert merge_worker_events({0: [], 1: []}, clock=REPORT_CLOCK) == []


class TestAgreementMonitor:
    def test_matching_decisions_stay_green(self):
        monitors = MonitorSet()
        monitors.on_decision(0, epoch=0, instance=1, digest="d", at=1.0)
        monitors.on_decision(1, epoch=0, instance=1, digest="d", at=1.1)
        assert monitors.ok

    def test_divergent_decisions_trip(self):
        monitors = MonitorSet()
        monitors.on_decision(0, epoch=0, instance=1, digest="d1", at=1.0)
        monitors.on_decision(1, epoch=0, instance=1, digest="d2", at=1.1)
        assert not monitors.ok
        assert monitors.violations[0].name == "agreement"

    def test_expected_disagreement_is_not_a_violation(self):
        monitors = MonitorSet(expect_disagreement=True)
        monitors.on_decision(0, epoch=0, instance=1, digest="d1", at=1.0)
        monitors.on_decision(1, epoch=0, instance=1, digest="d2", at=1.1)
        monitors.on_disagreement(0, instance=1, at=1.2)
        assert monitors.ok

    def test_deceitful_replicas_do_not_count(self):
        monitors = MonitorSet(honest={0, 1})
        monitors.on_decision(0, epoch=0, instance=1, digest="d1", at=1.0)
        monitors.on_decision(5, epoch=0, instance=1, digest="d2", at=1.1)
        assert monitors.ok

    def test_each_disagreeing_instance_trips_once(self):
        monitors = MonitorSet()
        for instance in (1, 2):
            monitors.on_decision(0, epoch=0, instance=instance, digest="a", at=1.0)
            monitors.on_decision(1, epoch=0, instance=instance, digest="b", at=1.1)
            monitors.on_decision(2, epoch=0, instance=instance, digest="c", at=1.2)
            monitors.on_decision(3, epoch=0, instance=instance, digest="a", at=1.3)
        assert [v.detail["instance"] for v in monitors.violations] == [1, 2]
        assert [v.replica for v in monitors.violations] == [1, 1]

    def test_a_third_replicas_differing_digest_trips_once(self):
        monitors = MonitorSet()
        monitors.on_decision(0, epoch=0, instance=1, digest="a", at=1.0)
        monitors.on_decision(1, epoch=0, instance=1, digest="a", at=1.1)
        monitors.on_decision(2, epoch=0, instance=1, digest="b", at=1.2)
        monitors.on_decision(3, epoch=0, instance=1, digest="c", at=1.3)
        assert [
            (v.name, v.replica, v.detail["other"]) for v in monitors.violations
        ] == [("agreement", 2, 0)]

    def test_a_replica_that_re_decides_differently_trips(self):
        monitors = MonitorSet()
        monitors.on_decision(0, epoch=0, instance=1, digest="a", at=1.0)
        monitors.on_decision(0, epoch=0, instance=1, digest="b", at=1.1)
        assert [(v.replica, v.detail["other"]) for v in monitors.violations] == [
            (0, 0)
        ]

    def test_the_table_holds_one_entry_per_instance_whatever_n(self):
        monitors = MonitorSet()
        for instance in range(4):
            for replica in range(10):
                monitors.on_decision(
                    replica, epoch=0, instance=instance, digest=f"d{instance}", at=1.0
                )
        assert monitors.ok
        assert monitors._decisions == {(0, i): (0, f"d{i}") for i in range(4)}

    def test_the_same_instance_in_a_later_epoch_trips_again(self):
        monitors = MonitorSet()
        for epoch in (0, 1):
            monitors.on_decision(0, epoch=epoch, instance=4, digest="a", at=1.0)
            monitors.on_decision(1, epoch=epoch, instance=4, digest="b", at=1.1)
        assert [v.detail["epoch"] for v in monitors.violations] == [0, 1]

    def test_violation_names_both_digests(self):
        monitors = MonitorSet()
        monitors.on_decision(0, epoch=0, instance=7, digest="a", at=1.0)
        monitors.on_decision(2, epoch=0, instance=7, digest="b", at=2.5)
        assert monitors.violations[0].to_dict() == {
            "name": "agreement",
            "replica": 2,
            "at": 2.5,
            "detail": {
                "epoch": 0,
                "instance": 7,
                "other": 0,
                "digest": "b",
                "other_digest": "a",
            },
        }

    def test_a_replica_repeating_its_decision_stays_green(self):
        # A cluster worker re-ships its recent commits in every obs frame.
        monitors = MonitorSet()
        for at in (1.0, 2.0, 3.0):
            monitors.on_decision(0, epoch=0, instance=1, digest="d", at=at)
        monitors.on_decision(1, epoch=0, instance=1, digest="d", at=3.5)
        assert monitors.ok


class TestValidityAndSupplyMonitors:
    def test_invalid_commit_trips_validity(self):
        monitors = MonitorSet()
        monitors.register_ledger(0, conserved_total=100)
        monitors.on_commit(0, instance=1, invalid=2, phantom=0, conserved_total=100, at=1.0)
        assert not monitors.ok
        assert monitors.violations[0].name == "validity"

    def test_forged_double_spend_mints_value_and_trips_supply(self, tmp_path):
        """A deceitful mint — value from nowhere — must trip the supply
        monitor and produce a causally-ordered flight-recorder dump."""
        from repro.ledger.block import make_genesis_block
        from repro.ledger.merge import BlockchainRecord
        from repro.ledger.utxo import UTXO

        genesis_block, genesis_utxos = make_genesis_block([("alice", 1_000)])
        record = BlockchainRecord(
            initial_deposit=500, genesis=(genesis_block, genesis_utxos)
        )
        baseline = record.utxos.total_supply() + record.deposit

        dump_path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(dump_path=dump_path)
        recorder.record(0.5, replica=0, kind="deliver", detail="PROPOSE batch-1")
        recorder.record(1.0, replica=0, kind="deliver", detail="DECIDE batch-1")
        monitors = MonitorSet(recorder=recorder)
        monitors.register_ledger(0, baseline)

        # Forge a coin: an output no transaction ever created.
        record.utxos.add(UTXO(utxo_id="forged:0", account="mallory", amount=777))
        monitors.on_commit(
            0,
            instance=1,
            invalid=0,
            phantom=0,
            conserved_total=record.utxos.total_supply() + record.deposit,
            at=1.5,
        )

        assert not monitors.ok
        violation = monitors.violations[0]
        assert violation.name == "supply-conservation"
        assert violation.detail["minted"] == 777
        # The first violation dumped the recorder, causally ordered.
        assert monitors.dump_written
        header, *events = [
            json.loads(line)
            for line in open(dump_path, encoding="utf-8")
            if line.strip()
        ]
        assert header["recorded"] == header["retained"] == 2
        assert [event["detail"] for event in events] == [
            "PROPOSE batch-1",
            "DECIDE batch-1",
        ]
        assert events[0]["t"] <= events[1]["t"]

    def test_burning_value_is_allowed(self):
        monitors = MonitorSet()
        monitors.register_ledger(0, conserved_total=100)
        monitors.on_commit(0, instance=1, invalid=0, phantom=0, conserved_total=90, at=1.0)
        monitors.on_merge(0, instance=1, conserved_total=80, at=2.0)
        monitors.on_punish(0, conserved_total=70, at=3.0)
        assert monitors.ok


class TestZeroLossFinalize:
    def test_gain_within_seizure_is_green(self):
        monitors = MonitorSet()
        monitors.finalize(realized_gain=100, seized_deposit=500)
        assert monitors.ok

    def test_gain_exceeding_seizure_trips(self):
        monitors = MonitorSet()
        monitors.finalize(realized_gain=600, seized_deposit=500)
        assert not monitors.ok
        assert monitors.violations[0].name == "zero-loss"

    def test_deposit_shortfall_trips(self):
        monitors = MonitorSet()
        monitors.finalize(realized_gain=0, seized_deposit=0, deposit_shortfall=10)
        assert not monitors.ok

    def test_violations_ship_as_json(self):
        # What a cluster worker's report carries.
        monitors = MonitorSet()
        monitors.register_ledger(0, conserved_total=100)
        monitors.on_decision(0, epoch=0, instance=1, digest="d", at=1.0)
        monitors.finalize(realized_gain=1, seized_deposit=0)
        assert monitors.ok is False
        json.dumps([violation.to_dict() for violation in monitors.violations])


class TestRuntimeWiring:
    def test_enabled_builds_a_recorder_and_no_monitors(self):
        runtime = TraceRuntime.enabled(recorder_capacity=16)
        assert runtime.recorder is not None
        assert TraceRuntime.__slots__ == ("tracer", "recorder")

    def test_the_deployment_owns_the_monitors_of_every_replica(self):
        from repro.zlb.system import deploy

        deployment = deploy(FaultConfig(n=4), pool_size=0)
        replicas = [deployment.replica(replica_id) for replica_id in range(4)]
        assert all(replica.monitors is deployment.monitors for replica in replicas)
        assert deployment.monitors.ok
        assert set(deployment.monitors._baselines) == {0, 1, 2, 3}
        assert not deployment.monitors.expect_disagreement

    def test_an_attacked_deployment_expects_disagreement_among_the_honest(self):
        from repro.zlb.system import AttackSpec, deploy

        deployment = deploy(FaultConfig.paper_attack(9), attack=AttackSpec())
        monitors = deployment.monitors
        assert monitors.expect_disagreement
        deceitful = deployment.plan.deceitful
        assert deceitful and not any(monitors._is_honest(r) for r in deceitful)
        honest = set(deployment.committee) - set(deceitful)
        assert all(monitors._is_honest(replica_id) for replica_id in honest)

    def test_a_traced_system_attaches_its_recorder_for_the_dump(self, tmp_path):
        from repro.zlb.system import ZLBSystem

        probe = Probe(trace=TraceRuntime.enabled(dump_path=tmp_path / "d.jsonl"))
        system = ZLBSystem.create(
            FaultConfig(n=4), workload_transactions=0, probe=probe
        )
        assert system.deployment.monitors.recorder is probe.trace.recorder
        bare = ZLBSystem.create(FaultConfig(n=4), workload_transactions=0)
        assert bare.deployment.monitors.recorder is None

    def test_summary_is_json_serialisable(self):
        runtime = TraceRuntime.enabled()
        runtime.tracer.event("zlb.commit", 0, 1.0, instance=0)
        json.dumps(runtime.summary())
