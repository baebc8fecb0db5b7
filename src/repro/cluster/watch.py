"""Launcher-side aggregation plane: live dashboard, monitors, forensics.

:class:`ClusterWatcher` is the single sink for every protocol frame the
collector threads parse off worker stdout.  The pump, the renderer and the
serve surface are :class:`repro.obs.watch.Watcher`'s; this module adds what
is specific to a cluster:

* the **replica row** — status, connected peers, committed, tx/s, sliding
  p99 time-to-commit, mempool depth, age of the last obs frame; a wedged or
  killed worker stalls *its row* (age climbing, status degraded) while the
  dashboard keeps refreshing;
* **forensics** — per-worker flight-ring increments and epoch offsets
  accumulated as they stream in, plus per-worker spans/events from final
  reports, merged onto one shared cluster clock by
  :func:`~repro.obs.recorder.merge_worker_events` for the flight dump and the
  Chrome trace artifact.  A SIGKILL'd worker's already-shipped ring
  increments stay in the watcher — its last causal events survive it, which
  is the whole point of crash forensics — and every event that did *not*
  make it (evicted from a worker ring before shipping, cut from an oversized
  frame, dropped by the launcher's own retention) is counted per replica and
  stated in the dump's header;
* **cross-replica commit agreement**, the invariant no single worker can
  check: the per-instance block digests workers attach to their obs frames
  feed the same :class:`~repro.obs.monitors.MonitorSet` a simulated run uses,
  so a conflicting commit trips ``agreement`` once per instance (safety, not
  liveness — lag is fine).

Every entry of :attr:`ClusterWatcher.violations` — the launcher's own trips
and the worker-local ones (supply conservation, validity, zero loss) shipped
in obs frames and reports — is one
:meth:`~repro.obs.monitors.InvariantViolation.to_dict` plus the
``replica_id`` it is attributed to.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from time import perf_counter
from typing import Any, Deque, Dict, Iterable, List, Optional

from repro.cluster import protocol as wire
from repro.obs.export import chrome_trace, write_json, write_jsonl
from repro.obs.monitors import MonitorSet
from repro.obs.recorder import REPORT_CLOCK, flight_header, merge_worker_events
from repro.obs.watch import Sample, Watcher

#: Flight events retained per replica at the launcher (newest kept).  Workers
#: ship bounded increments; this bounds the launcher against long runs.
FLIGHT_RETAIN_PER_REPLICA = 4096

#: An obs-enabled replica whose last frame is older than this many seconds is
#: rendered as stalled (its process may still be alive — the row degrades,
#: the dashboard keeps refreshing).
STALL_AFTER_S = 2.0


@dataclasses.dataclass
class ReplicaRow:
    """Latest known state of one replica, as seen from its frames."""

    HEADER = (
        f"  {'replica':<8} {'status':<11} {'peers':>5} {'tx':>7} "
        f"{'tx/s':>8} {'p99(ms)':>8} {'mempool':>8} {'age':>6}"
    )
    LABEL = ("replica", "replica_id")
    METRICS = (
        ("repro_cluster_replica_committed_total", "counter", "committed"),
        ("repro_cluster_replica_tx_per_s", "gauge", "tx_per_s"),
        ("repro_cluster_replica_peers", "gauge", "peers"),
        ("repro_cluster_replica_mempool", "gauge", "mempool"),
        ("repro_cluster_commit_latency_seconds", "gauge", "latency"),
        ("repro_cluster_replica_frame_age_seconds", "gauge", "frame_age_s"),
        ("repro_cluster_replica_ring_skipped_total", "counter", "ring_skipped"),
        ("repro_cluster_replica_recorder_evicted_total", "counter", "recorder_evicted"),
    )

    replica_id: int
    status: str = "starting"
    peers: int = 0
    committed: int = 0
    total: Optional[int] = None
    blocks: int = 0
    tx_per_s: float = 0.0
    events_per_sec: float = 0.0
    mempool: int = 0
    latency: Dict[str, float] = dataclasses.field(default_factory=dict)
    frames: int = 0
    spans: int = 0
    violations: int = 0
    last_frame_wall: Optional[float] = None
    #: Forensics loss accounting, summed over this replica's frames: flight
    #: events cut from oversized frames (or dropped by the launcher's
    #: retention), events its recorder evicted before they could be shipped,
    #: and spans/events cut from its final report.
    ring_skipped: int = 0
    recorder_evicted: int = 0
    spans_truncated: int = 0

    def frame_age_s(self) -> Optional[float]:
        """Seconds since this replica's last obs frame (None before the first)."""
        if self.last_frame_wall is None:
            return None
        return perf_counter() - self.last_frame_wall

    def stalled(self) -> bool:
        age = self.frame_age_s()
        return (
            age is not None
            and age > STALL_AFTER_S
            and self.status not in ("done", "crashed", "terminated")
        )

    def line(self) -> str:
        p99 = self.latency.get("p99")
        p99_text = f"{p99 * 1000.0:7.1f}" if p99 is not None else "     --"
        age = self.frame_age_s()
        age_text = f"{age:5.1f}s" if age is not None else "    --"
        status = "stalled" if self.stalled() else self.status
        return (
            f"  {self.replica_id:<8} {status:<11} {self.peers:>5} "
            f"{self.committed:>7} {self.tx_per_s:>8.1f} {p99_text:>8} "
            f"{self.mempool:>8} {age_text:>6}"
        )

    def to_dict(self) -> Dict[str, Any]:
        row = dataclasses.asdict(self)
        del row["last_frame_wall"]
        row["frame_age_s"] = self.frame_age_s()
        row["stalled"] = self.stalled()
        return row


class ClusterWatcher(Watcher):
    """Aggregates worker protocol frames; renders, serves and merges them."""

    row_type = ReplicaRow
    rows_key = "replicas"
    FAMILIES = (
        ("repro_cluster_replicas", "gauge"),
        ("repro_cluster_obs_frames_total", "counter"),
        ("repro_cluster_violations_total", "counter"),
    )

    def __init__(
        self, n: int, total_transactions: int = 0, render: bool = False, **options: Any
    ) -> None:
        super().__init__(render=render, **options)
        self.n = n
        self.total_transactions = total_transactions
        for replica_id in range(n):
            self.row(replica_id)
        #: Launcher-detected and worker-reported invariant violations.
        self.violations: List[Dict[str, Any]] = []
        #: Cross-replica agreement over the commit digests workers ship.
        self.monitors = MonitorSet()
        self.obs_frames = 0
        self._epoch_offsets: Dict[int, float] = {}
        self._flight: Dict[int, Deque[Dict[str, Any]]] = {}
        self._report_obs: Dict[int, Dict[str, Any]] = {}

    # -- ingestion -------------------------------------------------------------

    def fold(self, frame: Dict[str, Any]) -> None:
        """Fold one protocol frame into the aggregate state."""
        event = frame.get("event")
        replica_id = frame.get("replica_id")
        if not isinstance(replica_id, int):
            return
        row = self.row(replica_id)
        if event == wire.EVENT_READY:
            row.status = "ready"
            offset = frame.get("epoch_offset")
            if isinstance(offset, (int, float)):
                self._epoch_offsets[replica_id] = float(offset)
        elif event == wire.EVENT_CONNECTED:
            row.status = "connected"
            row.peers = len(frame.get("peers") or ())
        elif event == wire.EVENT_OBS:
            self._ingest_obs(row, frame)
        elif event == wire.EVENT_REPORT:
            self._ingest_report(row, frame)

    def _ingest_obs(self, row: ReplicaRow, frame: Dict[str, Any]) -> None:
        replica_id = row.replica_id
        self.obs_frames += 1
        row.frames += 1
        row.last_frame_wall = perf_counter()
        if row.status in ("starting", "ready", "connected"):
            row.status = "running"
        row.committed = int(frame.get("committed") or 0)
        row.blocks = int(frame.get("blocks") or 0)
        row.tx_per_s = float(frame.get("tx_per_s") or 0.0)
        row.events_per_sec = float(frame.get("events_per_sec") or 0.0)
        row.mempool = int(frame.get("mempool") or 0)
        row.peers = int(frame.get("peers") or row.peers)
        row.spans = int(frame.get("spans") or row.spans)
        latency = frame.get("commit_latency")
        if isinstance(latency, dict) and latency:
            row.latency = {key: float(value) for key, value in latency.items()}
        for violation in frame.get("violations") or ():
            self._record(row, violation)
        row.ring_skipped += int(frame.get("ring_skipped") or 0)
        row.recorder_evicted += int(frame.get("recorder_evicted") or 0)
        ring = frame.get("ring") or ()
        if ring:
            buffer = self._flight.get(replica_id)
            if buffer is None:
                buffer = self._flight[replica_id] = deque(
                    maxlen=FLIGHT_RETAIN_PER_REPLICA
                )
            # The launcher's own retention is one more place events get lost.
            row.ring_skipped += max(0, len(buffer) + len(ring) - buffer.maxlen)
            buffer.extend(ring)
        tripped = len(self.monitors.violations)
        at = frame.get("t")
        for instance, digest in (frame.get("commits") or {}).items():
            try:
                instance = int(instance)
            except (TypeError, ValueError):
                continue  # not an instance number: nothing to compare
            self.monitors.on_decision(replica_id, 0, instance, digest, at)
        for violation in self.monitors.violations[tripped:]:
            self._record(row, violation.to_dict())

    def _record(self, row: ReplicaRow, violation: Dict[str, Any]) -> None:
        """Keep ``violation``, attributed to ``row``'s replica, once: a
        worker's report repeats what its obs frames already shipped."""
        record = dict(violation, replica_id=row.replica_id)
        if record not in self.violations:
            row.violations += 1
            self.violations.append(record)

    def _ingest_report(self, row: ReplicaRow, frame: Dict[str, Any]) -> None:
        replica_id = row.replica_id
        status = frame.get("status")
        row.status = "done" if status == "ok" else str(status)
        row.committed = int(frame.get("committed") or row.committed)
        row.total = int(frame.get("total_transactions") or 0) or row.total
        row.blocks = int(frame.get("blocks") or row.blocks)
        offset = frame.get("epoch_offset")
        if isinstance(offset, (int, float)):
            self._epoch_offsets[replica_id] = float(offset)
        for violation in frame.get("violations") or ():
            self._record(row, violation)
        obs = frame.get("obs")
        if isinstance(obs, dict):
            self._report_obs[replica_id] = obs
            row.spans_truncated += int(obs.get("spans_truncated") or 0)

    def note_crash(self, replica_id: int, exit_code: Any) -> None:
        """Mark a replica that exited without a report (collector-thread safe)."""
        with self._lock:
            self.row(replica_id).status = "crashed"
        self._maybe_render()

    # -- what the Watcher renders and serves ------------------------------------

    def headline(self) -> str:
        committed = min((row.committed for row in self.rows.values()), default=0)
        total = self.total_transactions or max(
            (row.total or 0 for row in self.rows.values()), default=0
        )
        header = f"cluster: {committed}/{total} tx committed everywhere"
        if self.violations:
            header += f"  !! {len(self.violations)} violation(s)"
        return header

    def totals(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "total_transactions": self.total_transactions,
            "obs_frames": self.obs_frames,
            "violations": list(self.violations),
        }

    def total_samples(self, state: Dict[str, Any]) -> Iterable[Sample]:
        yield "repro_cluster_replicas", {}, state["n"]
        yield "repro_cluster_obs_frames_total", {}, state["obs_frames"]
        yield "repro_cluster_violations_total", {}, len(state["violations"])

    # -- forensics: causal merge across workers --------------------------------

    def merged_flight_events(self) -> List[Dict[str, Any]]:
        """Every worker's flight-ring events on one shared cluster clock.

        Includes events from workers that later died: increments shipped in
        obs frames survive their sender.  Ordering is ``(t_cluster, worker,
        seq)`` — wall-clock alignment via each worker's epoch offset, then
        per-worker record order.
        """
        with self._lock:
            events_by_worker = {
                replica_id: list(buffer)
                for replica_id, buffer in self._flight.items()
            }
            offsets = dict(self._epoch_offsets)
        return merge_worker_events(events_by_worker, offsets)

    def merged_spans(self) -> Dict[str, List[Dict[str, Any]]]:
        """Per-worker report spans/events on the cluster clock.

        Returns ``{"spans": [...], "events": [...]}`` — one
        :func:`~repro.obs.recorder.merge_worker_events` pass over both, so
        they share one zero — the shape :func:`repro.obs.export.chrome_trace`
        consumes.
        """
        with self._lock:
            records = {
                replica_id: [*(obs.get("spans") or ()), *(obs.get("events") or ())]
                for replica_id, obs in self._report_obs.items()
            }
            offsets = dict(self._epoch_offsets)
        merged = merge_worker_events(records, offsets, clock=REPORT_CLOCK)
        return {
            "spans": [record for record in merged if "start" in record],
            "events": [record for record in merged if "start" not in record],
        }

    def write_flight_dump(self, path: Any) -> str:
        """Write the merged flight-recorder timeline as JSONL; returns path.

        The first line is the header stating how many events the workers
        recorded and how many of them the dump retains.
        """
        events = self.merged_flight_events()
        with self._lock:
            evicted = sum(row.recorder_evicted for row in self.rows.values())
            skipped = sum(row.ring_skipped for row in self.rows.values())
        header = flight_header(
            len(events) + evicted + skipped, len(events), evicted, skipped
        )
        return write_jsonl([header, *events], path)

    def write_chrome_trace(self, path: Any) -> str:
        """Write the merged cluster Chrome trace JSON; returns the path."""
        merged = self.merged_spans()
        trace = chrome_trace(
            merged["spans"],
            merged["events"],
            clock="cluster wall-clock seconds (epoch-aligned), scaled to us",
        )
        return write_json(trace, path, indent=None)
