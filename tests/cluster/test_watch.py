"""ClusterWatcher unit tests: ingestion, monitors, stall tolerance, merging.

These run without any subprocesses — frames are hand-built dicts in the
:mod:`repro.cluster.protocol` shapes — so the aggregation plane's invariants
(cross-replica agreement, stalled-row degradation, causal merging onto the
shared cluster clock) are pinned fast and deterministically.
"""

import io
import json
import queue
import time
from time import perf_counter

import pytest

from repro.cluster import protocol as wire
from repro.cluster.watch import STALL_AFTER_S, ClusterWatcher
from repro.obs.monitors import MonitorSet


def _obs_frame(replica_id, **overrides):
    frame = {
        "event": wire.EVENT_OBS,
        "replica_id": replica_id,
        "t": 1.0,
        "committed": 10,
        "blocks": 1,
        "tx_per_s": 5.0,
        "events_per_sec": 100.0,
        "mempool": 3,
        "peers": 3,
        "messages_delivered": 42,
        "commit_latency": {"p50": 0.1, "p99": 0.4},
        "spans": 7,
        "commits": {},
        "violations": [],
        "ring": [],
    }
    frame.update(overrides)
    return frame


class TestIngestion:
    def test_frames_update_rows_and_serve_surface(self):
        watcher = ClusterWatcher(n=2, total_transactions=40)
        watcher.ingest(wire.ready_frame(0, offset=100.0))
        watcher.ingest(wire.connected_frame(0, [1]))
        watcher.ingest(_obs_frame(0))

        state = watcher.state()
        assert state["obs_frames"] == 1
        row = state["replicas"][0]
        assert row["status"] == "running"
        assert row["committed"] == 10
        assert row["latency"]["p99"] == 0.4
        assert row["frame_age_s"] is not None

        text = watcher.prometheus_text()
        assert 'repro_cluster_replica_committed_total{replica="0"} 10' in text
        assert (
            'repro_cluster_commit_latency_seconds{replica="0",quantile="p99"}'
            in text
        )
        assert "repro_cluster_obs_frames_total 1" in text

    def test_report_frame_finishes_row(self):
        watcher = ClusterWatcher(n=1)
        watcher.ingest(
            {
                "event": wire.EVENT_REPORT,
                "replica_id": 0,
                "status": "ok",
                "committed": 40,
                "total_transactions": 40,
                "blocks": 4,
            }
        )
        row = watcher.state()["replicas"][0]
        assert row["status"] == "done"
        assert row["committed"] == 40

    def test_worker_violations_are_attributed(self):
        # What a worker's MonitorSet ships after a minting commit: its obs
        # frames carry each trip once, its final report repeats them all.
        monitors = MonitorSet()
        monitors.register_ledger(1, conserved_total=100)
        monitors.on_commit(
            1, instance=3, invalid=0, phantom=0, conserved_total=101, at=2.5
        )
        trip = monitors.violations[0].to_dict()
        watcher = ClusterWatcher(n=2)
        watcher.ingest(_obs_frame(1, violations=[trip]))
        watcher.ingest(
            {
                "event": wire.EVENT_REPORT,
                "replica_id": 1,
                "status": "ok",
                "committed": 1,
                "total_transactions": 1,
                "blocks": 1,
                "violations": [trip],
            }
        )
        assert watcher.violations == [dict(trip, replica_id=1)]
        assert watcher.violations[0]["name"] == "supply-conservation"
        assert watcher.state()["replicas"][1]["violations"] == 1


class TestAgreementMonitor:
    def test_matching_digests_are_fine(self):
        watcher = ClusterWatcher(n=2)
        watcher.ingest(_obs_frame(0, commits={"0": "abc", "1": "def"}))
        watcher.ingest(_obs_frame(1, commits={"0": "abc", "1": "def"}))
        assert watcher.violations == []

    def test_conflicting_digest_trips_once(self):
        watcher = ClusterWatcher(n=3)
        watcher.ingest(_obs_frame(0, commits={"2": "aaaaaaaaaaaaaaaa"}))
        watcher.ingest(_obs_frame(1, commits={"2": "bbbbbbbbbbbbbbbb"}))
        # A third sighting of the same disagreement must not duplicate it.
        watcher.ingest(_obs_frame(2, commits={"2": "aaaaaaaaaaaaaaaa"}))
        agreement = [v for v in watcher.violations if v["name"] == "agreement"]
        assert len(agreement) == 1
        (violation,) = agreement
        assert violation["replica_id"] == violation["replica"] == 1
        assert violation["detail"]["instance"] == 2
        assert violation["detail"]["digest"] != violation["detail"]["other_digest"]

    def test_lagging_replica_is_not_a_violation(self):
        # Safety, not liveness: one replica being instances behind is fine.
        watcher = ClusterWatcher(n=2)
        watcher.ingest(_obs_frame(0, commits={"0": "abc", "5": "xyz"}))
        watcher.ingest(_obs_frame(1, commits={"0": "abc"}))
        assert watcher.violations == []

    def test_each_conflicting_instance_trips_once(self):
        watcher = ClusterWatcher(n=2)
        watcher.ingest(_obs_frame(0, t=1.0, commits={"3": "aa", "4": "cc"}))
        for t in (2.0, 3.0):  # workers re-ship recent commits every frame
            watcher.ingest(_obs_frame(1, t=t, commits={"3": "bb", "4": "dd"}))
        assert [v["detail"]["instance"] for v in watcher.violations] == [3, 4]
        assert all(v["at"] == 2.0 for v in watcher.violations)
        assert watcher.state()["replicas"][1]["violations"] == 2
        assert watcher.state()["replicas"][0]["violations"] == 0

    def test_launcher_and_worker_trips_share_one_shape(self):
        monitors = MonitorSet()
        monitors.register_ledger(0, conserved_total=100)
        monitors.on_commit(0, instance=1, invalid=1, phantom=0, conserved_total=100, at=1.0)
        watcher = ClusterWatcher(n=2)
        watcher.ingest(
            _obs_frame(
                0,
                commits={"1": "aa"},
                violations=[monitors.violations[0].to_dict()],
            )
        )
        watcher.ingest(_obs_frame(1, commits={"1": "bb"}))
        worker, launcher = watcher.violations
        assert (worker["name"], launcher["name"]) == ("validity", "agreement")
        assert set(worker) == set(launcher) == {
            "name", "replica", "at", "detail", "replica_id"
        }

    def test_a_commit_key_that_is_no_instance_is_ignored(self):
        watcher = ClusterWatcher(n=2)
        watcher.ingest(_obs_frame(0, commits={"1": "aa", "x": "zz"}))
        watcher.ingest(_obs_frame(1, commits={"1": "aa", "x": "yy"}))
        assert watcher.violations == []
        assert watcher.obs_frames == 2


class TestStallTolerance:
    def test_fresh_row_is_not_stalled(self):
        watcher = ClusterWatcher(n=1)
        watcher.ingest(_obs_frame(0))
        assert watcher.state()["replicas"][0]["stalled"] is False

    def test_old_frame_age_degrades_the_row(self):
        watcher = ClusterWatcher(n=1)
        watcher.ingest(_obs_frame(0))
        row = watcher.rows[0]
        row.last_frame_wall = perf_counter() - (STALL_AFTER_S + 1.0)
        snapshot = watcher.state()["replicas"][0]
        assert snapshot["stalled"] is True
        assert snapshot["frame_age_s"] > STALL_AFTER_S
        assert "stalled" in "\n".join(watcher._table_lines())

    def test_finished_row_never_reports_stalled(self):
        watcher = ClusterWatcher(n=1)
        watcher.ingest(_obs_frame(0))
        watcher.ingest(
            {
                "event": wire.EVENT_REPORT,
                "replica_id": 0,
                "status": "ok",
                "committed": 1,
                "total_transactions": 1,
                "blocks": 1,
            }
        )
        watcher.rows[0].last_frame_wall = perf_counter() - (STALL_AFTER_S + 1.0)
        assert watcher.state()["replicas"][0]["stalled"] is False

    def test_pump_keeps_rendering_with_an_empty_queue(self):
        # The satellite fix: a wedged worker must not freeze the dashboard.
        # The pump drains with a timeout and refreshes on *every* timeout, so
        # frame ages keep climbing with zero frames arriving.
        out = io.StringIO()
        watcher = ClusterWatcher(n=2, out=out, render=True, poll_s=0.05)
        frames = queue.Queue()
        watcher.start(frames)
        try:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and not out.getvalue():
                time.sleep(0.02)
        finally:
            watcher.finish()
        assert "cluster:" in out.getvalue()


class TestCausalMerge:
    def test_flight_events_merge_onto_cluster_clock(self):
        watcher = ClusterWatcher(n=2)
        # Worker 1's monotonic clock started 5s "later" on the wall clock.
        watcher.ingest(wire.ready_frame(0, offset=1000.0))
        watcher.ingest(wire.ready_frame(1, offset=1005.0))
        watcher.ingest(
            _obs_frame(
                0,
                ring=[
                    {"seq": 1, "t": 10.0, "replica": 0, "type": "send",
                     "detail": "a", "trace": None},
                    {"seq": 2, "t": 12.0, "replica": 0, "type": "deliver",
                     "detail": "b", "trace": None},
                ],
            )
        )
        watcher.ingest(
            _obs_frame(
                1,
                ring=[
                    {"seq": 1, "t": 6.0, "replica": 1, "type": "send",
                     "detail": "c", "trace": None},
                ],
            )
        )
        merged = watcher.merged_flight_events()
        assert [event["worker"] for event in merged] == [0, 1, 0]
        assert merged[0]["t_cluster"] == 0.0  # normalised to a zero base
        assert merged[1]["t_cluster"] == 1.0  # 6 + 1005 vs 10 + 1000
        assert merged[2]["t_cluster"] == 2.0

    def test_dead_workers_events_survive_in_the_dump(self, tmp_path):
        watcher = ClusterWatcher(n=2)
        watcher.ingest(wire.ready_frame(1, offset=0.0))
        watcher.ingest(
            _obs_frame(
                1,
                ring=[
                    {"seq": 9, "t": 3.0, "replica": 1, "type": "send",
                     "detail": "last words", "trace": "t1:s1"},
                ],
            )
        )
        watcher.note_crash(1, -9)
        path = watcher.write_flight_dump(tmp_path / "flight.jsonl")
        header, *lines = [json.loads(line) for line in open(path)]
        assert header == {
            "header": "flight-dump",
            "recorded": 1,
            "retained": 1,
            "evicted": 0,
            "skipped": 0,
        }
        assert any(
            line["worker"] == 1 and line["detail"] == "last words"
            for line in lines
        )
        assert watcher.state()["replicas"][1]["status"] == "crashed"

    def test_merged_spans_and_chrome_trace(self, tmp_path):
        watcher = ClusterWatcher(n=2)
        watcher.ingest(wire.ready_frame(0, offset=100.0))
        watcher.ingest(wire.ready_frame(1, offset=104.0))
        for replica_id, start in ((0, 10.0), (1, 7.0)):
            watcher.ingest(
                {
                    "event": wire.EVENT_REPORT,
                    "replica_id": replica_id,
                    "status": "ok",
                    "committed": 1,
                    "total_transactions": 1,
                    "blocks": 1,
                    "epoch_offset": 100.0 + 4.0 * replica_id,
                    "obs": {
                        "spans": [
                            {
                                "trace": 7,
                                "span": replica_id + 1,
                                "parent": None,
                                "name": "asmr.instance",
                                "replica": replica_id,
                                "start": start,
                                "end": start + 1.0,
                            }
                        ],
                        "events": [
                            {
                                "name": "zlb.commit",
                                "replica": replica_id,
                                "t": start + 0.5,
                                "trace": 7,
                                "attrs": {},
                            }
                        ],
                    },
                }
            )
        merged = watcher.merged_spans()
        # Worker 0's span lands at wall 110, worker 1's at 111; base is 110.
        assert [span["start"] for span in merged["spans"]] == [0.0, 1.0]
        assert [span["replica"] for span in merged["spans"]] == [0, 1]
        path = watcher.write_chrome_trace(tmp_path / "trace.json")
        trace = json.load(open(path))
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"asmr.instance", "zlb.commit"} <= names
        pids = {event["pid"] for event in trace["traceEvents"]}
        assert pids == {0, 1}

    def test_no_reports_merge_to_empty_spans_and_events(self):
        watcher = ClusterWatcher(n=2)
        watcher.ingest(wire.ready_frame(0, offset=100.0))
        assert watcher.merged_spans() == {"spans": [], "events": []}


class TestLossAccounting:
    """A truncated forensic artefact must say it is truncated — exactly."""

    def _shipper(self, ring_capacity):
        from types import SimpleNamespace

        from repro.cluster.worker import _ObsShipper
        from repro.obs import Probe, TelemetryRegistry, TraceRuntime

        probe = Probe(
            metrics=TelemetryRegistry(),
            trace=TraceRuntime.enabled(recorder_capacity=ring_capacity),
        )
        blockchain = SimpleNamespace(
            transactions_committed=0, blocks_by_instance={}, mempool=[]
        )
        transport = SimpleNamespace(messages_delivered=0, connected_peers=lambda: [])
        loop = SimpleNamespace(time=lambda: 1.0)
        replica = SimpleNamespace(blockchain=blockchain, monitors=MonitorSet())
        shipper = _ObsShipper(0, replica, transport, probe, loop)
        return shipper, probe.trace.recorder

    def test_oversized_frame_reports_what_it_skipped(self):
        shipper, recorder = self._shipper(ring_capacity=512)
        for i in range(300):
            recorder.record(float(i), replica=0, kind="send", detail=f"e{i}")
        frame = shipper.frame()
        assert len(frame["ring"]) == wire.MAX_RING_EVENTS_PER_FRAME == 256
        assert frame["ring_skipped"] == 44
        assert frame["recorder_evicted"] == 0
        # The newest events are the ones kept, and the cursor moved past all.
        assert frame["ring"][-1]["detail"] == "e299"
        assert frame["ring"][0]["detail"] == "e44"
        follow_up = shipper.frame()
        assert follow_up["ring"] == []
        assert follow_up["ring_skipped"] == follow_up["recorder_evicted"] == 0

    def test_ring_overflow_between_frames_is_reported_as_evicted(self):
        shipper, recorder = self._shipper(ring_capacity=100)
        for i in range(300):
            recorder.record(float(i), replica=0, kind="send", detail=f"e{i}")
        frame = shipper.frame()
        assert len(frame["ring"]) == 100
        assert frame["recorder_evicted"] == 200
        assert frame["ring_skipped"] == 0
        extra = shipper.report_extra()
        assert extra["recorder_evicted"] == 200 and extra["ring_skipped"] == 0
        assert extra["spans_truncated"] == 0

    def test_watcher_sums_losses_and_the_merged_dump_states_them(self, tmp_path):
        shipper, recorder = self._shipper(ring_capacity=512)
        for i in range(300):
            recorder.record(float(i), replica=0, kind="send", detail=f"e{i}")
        watcher = ClusterWatcher(n=1)
        watcher.ingest(wire.ready_frame(0, offset=0.0))
        watcher.ingest(shipper.frame())
        for i in range(300, 310):
            recorder.record(float(i), replica=0, kind="send", detail=f"e{i}")
        watcher.ingest(shipper.frame())
        row = watcher.state()["replicas"][0]
        assert row["ring_skipped"] == 44 and row["recorder_evicted"] == 0
        assert (
            'repro_cluster_replica_ring_skipped_total{replica="0"} 44'
            in watcher.prometheus_text()
        )
        path = watcher.write_flight_dump(tmp_path / "flight.jsonl")
        header, *events = [json.loads(line) for line in open(path)]
        assert header == {
            "header": "flight-dump",
            "recorded": 310,
            "retained": 266,
            "evicted": 0,
            "skipped": 44,
        }
        assert len(events) == 266

    def test_report_truncation_is_counted(self):
        watcher = ClusterWatcher(n=1)
        watcher.ingest(
            {
                "event": wire.EVENT_REPORT,
                "replica_id": 0,
                "status": "ok",
                "committed": 1,
                "total_transactions": 1,
                "blocks": 1,
                "obs": {"spans": [], "events": [], "spans_truncated": 7},
            }
        )
        assert watcher.state()["replicas"][0]["spans_truncated"] == 7


class TestShipperFrame:
    """A frame's rates and latency quantiles come from the replica's own
    counters and its ``zlb.commit_latency_s`` histogram."""

    def test_commit_latency_quantiles_and_events_per_sec(self):
        from types import SimpleNamespace

        from repro.cluster.worker import _ObsShipper
        from repro.obs import Probe, TelemetryRegistry, TraceRuntime

        probe = Probe(metrics=TelemetryRegistry(), trace=TraceRuntime.enabled())
        clock = {"t": 10.0}
        blockchain = SimpleNamespace(
            transactions_committed=0, blocks_by_instance={}, mempool=[]
        )
        transport = SimpleNamespace(messages_delivered=100, connected_peers=lambda: [])
        replica = SimpleNamespace(blockchain=blockchain, monitors=MonitorSet())
        loop = SimpleNamespace(time=lambda: clock["t"])
        shipper = _ObsShipper(0, replica, transport, probe, loop)

        first = shipper.frame()
        assert first["commit_latency"] == {}
        assert first["events_per_sec"] == first["tx_per_s"] == 0.0

        for latency in (0.1, 0.2, 0.3, 0.4, 0.5):
            probe.observe("zlb.commit_latency_s", latency)
        blockchain.transactions_committed = 5
        transport.messages_delivered = 600
        clock["t"] = 10.5
        frame = shipper.frame()
        assert frame["commit_latency"] == pytest.approx({"p50": 0.3, "p99": 0.496})
        assert frame["events_per_sec"] == pytest.approx(1000.0)
        assert frame["tx_per_s"] == pytest.approx(10.0)
        assert frame["messages_delivered"] == 600

    def test_commit_digests_are_the_newest_instances_in_order(self):
        from types import SimpleNamespace

        from repro.cluster.worker import COMMIT_DIGEST_WINDOW, _ObsShipper
        from repro.obs import Probe, TelemetryRegistry, TraceRuntime

        probe = Probe(metrics=TelemetryRegistry(), trace=TraceRuntime.enabled())
        # Blocks land in commit order, which is instance order.
        blocks = {i: SimpleNamespace(block_hash=f"h{i}") for i in range(20)}
        blockchain = SimpleNamespace(
            transactions_committed=0, blocks_by_instance=blocks, mempool=[]
        )
        transport = SimpleNamespace(messages_delivered=0, connected_peers=lambda: [])
        replica = SimpleNamespace(blockchain=blockchain, monitors=MonitorSet())
        loop = SimpleNamespace(time=lambda: 1.0)
        frame = _ObsShipper(0, replica, transport, probe, loop).frame()
        newest = range(20 - COMMIT_DIGEST_WINDOW, 20)
        assert COMMIT_DIGEST_WINDOW == 8
        assert list(frame["commits"].items()) == [(str(i), f"h{i}") for i in newest]
        assert frame["blocks"] == 20
