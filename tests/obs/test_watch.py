"""Sweep watcher: progress folding, dead-worker robustness, HTTP endpoints."""

import io
import json
import multiprocessing
import os
import time
import urllib.request

from repro.obs.serve import WatchServer
from repro.obs.watch import CellProgress, SweepWatcher, cell_publisher


def _tick(key, sim_time, max_time=10.0, events=100, rate=50.0):
    return {
        "kind": "tick",
        "key": key,
        "cell": key,
        "sim_time": sim_time,
        "max_time": max_time,
        "events": events,
        "events_per_sec": rate,
    }


class TestCellProgress:
    def test_pct_tracks_sim_time_and_caps_at_one(self):
        cell = CellProgress("c", "k")
        assert cell.pct is None  # no horizon yet
        cell.max_time = 10.0
        cell.sim_time = 2.5
        assert cell.pct == 0.25
        cell.sim_time = 99.0
        assert cell.pct == 1.0
        cell.status = "done"
        assert cell.pct == 1.0

    def test_eta_shrinks_as_progress_grows(self):
        cell = CellProgress("c", "k")
        cell.max_time = 10.0
        cell.started_wall -= 1.0  # pretend one wall second elapsed
        cell.sim_time = 5.0
        halfway = cell.eta_s()
        cell.sim_time = 9.0
        nearly_done = cell.eta_s()
        assert halfway is not None and nearly_done is not None
        assert nearly_done < halfway


class TestWatcherIngest:
    def test_folds_events_into_table_and_counts_completion(self):
        out = io.StringIO()
        watcher = SweepWatcher(total_cells=2, out=out, refresh_s=0.0)
        watcher.ingest({"kind": "cell-start", "key": "a", "cell": "a", "max_time": 10.0})
        watcher.ingest(_tick("a", 5.0))
        watcher.ingest({"kind": "cell-end", "key": "a", "cell": "a", "wall_s": 1.5})
        watcher.ingest(_tick("b", 2.0))

        state = watcher.state()
        assert state["completed"] == 1
        by_key = {cell["key"]: cell for cell in state["cells"]}
        assert by_key["a"]["status"] == "done"
        assert by_key["a"]["wall_s"] == 1.5
        assert by_key["b"]["status"] == "running"
        assert by_key["b"]["pct"] == 0.2

    def test_duplicate_cell_end_counted_once(self):
        watcher = SweepWatcher(out=io.StringIO())
        for _ in range(3):
            watcher.ingest({"kind": "cell-end", "key": "a", "cell": "a"})
        assert watcher.state()["completed"] == 1

    def test_render_writes_table(self):
        out = io.StringIO()
        watcher = SweepWatcher(total_cells=1, out=out, refresh_s=0.0)
        watcher.ingest(_tick("fig4 n=9", 5.0))
        watcher.render(force=True)
        text = out.getvalue()
        assert "cells done" in text
        assert "fig4 n=9" in text
        assert "50.0%" in text  # 5.0 of 10.0 simulated seconds

    def test_prometheus_text_exposes_gauges(self):
        watcher = SweepWatcher(total_cells=3, out=io.StringIO())
        watcher.ingest(_tick("a", 5.0))
        watcher.note_cached(1)
        text = watcher.prometheus_text()
        assert "repro_sweep_cells_total 3" in text
        assert "repro_sweep_cells_completed 1" in text
        assert 'repro_cell_progress{cell="a"} 0.5' in text


def _doomed_worker(queue):
    """Publish a cell-start and one tick, then die without a cell-end."""
    publish = cell_publisher(queue.put_nowait, "doomed", "doomed")
    publish({"kind": "cell-start", "max_time": 10.0})
    publish(_tick("doomed", 3.0))
    queue.close()
    queue.join_thread()
    os._exit(1)  # simulate a crash/OOM kill mid-cell


class TestDeadWorker:
    def test_queue_drains_without_deadlock_when_worker_dies_mid_cell(self):
        """A worker death must stall its row, never wedge the watcher."""
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        watcher = SweepWatcher(total_cells=1, out=io.StringIO(), poll_s=0.05)
        watcher.start(queue)

        worker = context.Process(target=_doomed_worker, args=(queue,))
        worker.start()
        worker.join(timeout=10.0)
        assert worker.exitcode == 1

        # Give the pump a moment to drain what the worker managed to send.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if watcher.state()["cells"]:
                break
            time.sleep(0.05)

        started = time.monotonic()
        watcher.finish()  # must return promptly despite the missing cell-end
        assert time.monotonic() - started < 5.0

        state = watcher.state()
        assert state["completed"] == 0
        (cell,) = state["cells"]
        assert cell["status"] == "running"  # stalled at the last tick
        assert cell["sim_time"] == 3.0


class TestWatchServer:
    def test_serves_prometheus_and_json_state(self):
        watcher = SweepWatcher(total_cells=2, out=io.StringIO())
        watcher.ingest(_tick("a", 5.0))
        server = WatchServer(watcher, port=0)
        server.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            metrics = urllib.request.urlopen(f"{base}/metrics").read().decode()
            assert "repro_sweep_cells_total 2" in metrics
            state = json.loads(urllib.request.urlopen(f"{base}/state").read())
            assert state["total_cells"] == 2
            assert state["cells"][0]["cell"] == "a"
        finally:
            server.stop()
