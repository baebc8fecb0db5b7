"""The cluster launcher: spawn workers, watch them, aggregate their reports.

:func:`run_cluster` boots one OS process per replica (``python -m
repro.cluster.worker``), tails each worker's stdout for protocol frames
(:mod:`repro.cluster.protocol`), and folds the per-replica results into a
:class:`ClusterResult` with cluster-wide throughput and p50/p99 wall-clock
time-to-commit.  Each worker's latencies are the retained samples of its
replica's ``zlb.commit_latency_s`` histogram: exact up to 4 096 commits per
worker (``HISTOGRAM_RESERVOIR_SIZE``), a uniform reservoir sample beyond.
The default 200-transaction run is far below that bound, so its pooled
p50/p99 are exact.

Every frame also feeds the :class:`~repro.cluster.watch.ClusterWatcher`
aggregation plane: a live in-place dashboard (``watch=True``), a loopback
HTTP endpoint serving Prometheus ``/metrics`` and JSON ``/state``
(``serve_port=``), the cross-replica agreement check (the simulator's
:class:`~repro.obs.monitors.MonitorSet` over the workers' commit digests), and
the crash-forensics store (flight-ring increments + epoch offsets).  With
``spec.obs`` and an ``artifacts_dir``, the launcher writes a causally merged
Chrome trace of the whole cluster after the run — and, on any crash or
invariant violation, a merged flight dump whose timeline includes the dead
worker's last shipped events.

Failure handling is explicit rather than hopeful:

* a worker that exits without emitting its report is recorded as **crashed**
  (exit code captured, one log line per crash) — the launcher never hangs on
  a dead replica;
* on overall timeout or operator interrupt every surviving worker gets
  ``SIGTERM`` and a grace period to drain (workers report ``"terminated"``
  and exit 0), then ``SIGKILL``;
* a worker that merely *stalls* degrades its dashboard row (frame age
  climbing, status ``stalled``) while the rest of the plane keeps refreshing
  — the watcher drains its queue with a timeout, never a blocking read.
"""

from __future__ import annotations

import dataclasses
import json
import os
import queue as queue_mod
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from repro.analysis.metrics import summarize_latencies
from repro.cluster import protocol as wire
from repro.cluster.fixture import ClusterSpec
from repro.cluster.watch import ClusterWatcher
from repro.common.logging import get_logger

log = get_logger("repro.cluster")

#: Seconds a SIGTERM'd worker gets to drain before SIGKILL.
TERM_GRACE_S = 5.0

#: Artifact file names under ``artifacts_dir``.
TRACE_ARTIFACT = "cluster-trace.json"
FLIGHT_ARTIFACT = "cluster-flight.jsonl"


@dataclasses.dataclass
class WorkerHandle:
    """One spawned worker process and the collector state around it."""

    replica_id: int
    process: subprocess.Popen
    report: Optional[Dict[str, Any]] = None
    ready: bool = False
    #: Set by the stdout collector at end of stream: only then is a missing
    #: report final (a worker exits right after printing it, and the
    #: collector thread may not have read that last line yet).
    stdout_closed: bool = False
    stderr_tail: List[str] = dataclasses.field(default_factory=list)

    @property
    def crashed(self) -> bool:
        """Exited without delivering a report (distinct from a clean drain)."""
        code = self.process.returncode
        return code is not None and self.stdout_closed and self.report is None


@dataclasses.dataclass
class ClusterResult:
    """Aggregated outcome of one real-cluster run."""

    ok: bool
    spec: ClusterSpec
    duration_s: float
    committed: int
    total_transactions: int
    throughput_tx_per_s: float
    latency_p50_s: Optional[float]
    latency_p99_s: Optional[float]
    zero_loss: bool
    crashes: Dict[int, int]  # replica id -> exit code
    reports: Dict[int, Dict[str, Any]]
    #: Invariant violations, worker-local and the launcher's agreement trips
    #: alike: ``InvariantViolation.to_dict()`` plus ``replica_id``.
    violations: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: Obs frames received across all workers (0 in a no-obs run).
    obs_frames: int = 0
    #: Paths of written artifacts (None when not written).
    trace_dump: Optional[str] = None
    flight_dump: Optional[str] = None
    #: Bound port of the live HTTP endpoint, if one was served.
    serve_port: Optional[int] = None

    def to_json(self, full: bool = False) -> Dict[str, Any]:
        """JSON-serialisable summary.

        The default is the *compact* form ``python -m repro.cluster --json``
        writes: cluster aggregates plus per-replica counters — no raw latency arrays,
        no telemetry snapshots, no span sets (those can run to megabytes; the
        artifacts directory is where the big forensics files go).  ``full``
        restores the exhaustive per-replica reports.
        """
        payload: Dict[str, Any] = {
            "ok": self.ok,
            "n": self.spec.n,
            "transport": self.spec.transport,
            "transactions": self.total_transactions,
            "batch_size": self.spec.batch_size,
            "seed": self.spec.seed,
            "obs": self.spec.obs,
            "duration_s": self.duration_s,
            "committed": self.committed,
            "throughput_tx_per_s": self.throughput_tx_per_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "zero_loss": self.zero_loss,
            "obs_frames": self.obs_frames,
            "violations": list(self.violations),
            "crashes": {str(rid): code for rid, code in self.crashes.items()},
        }
        if full:
            payload["replicas"] = {
                str(rid): report for rid, report in self.reports.items()
            }
        else:
            payload["replicas"] = {
                str(rid): _compact_report(report)
                for rid, report in self.reports.items()
            }
        return payload


def _compact_report(report: Dict[str, Any]) -> Dict[str, Any]:
    """Per-replica counters only: drop raw latency arrays, telemetry and spans."""
    latencies = report.get("commit_latencies_s") or []
    summary = summarize_latencies(latencies)
    compact = {
        key: report[key]
        for key in (
            "status",
            "accepted",
            "committed",
            "total_transactions",
            "blocks",
            "duration_s",
            "conserved_ok",
            "commit_rejected",
            "transport",
            "chain",
        )
        if key in report
    }
    compact["latency_count"] = len(latencies)
    compact["latency_p50_s"] = summary.get("p50") if latencies else None
    compact["latency_p99_s"] = summary.get("p99") if latencies else None
    obs = report.get("obs")
    if isinstance(obs, dict):
        compact["obs_frames_sent"] = obs.get("frames_sent")
        compact["spans"] = len(obs.get("spans") or ())
    return compact


def _free_tcp_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _pick_base_port(n: int) -> int:
    """A base port whose ``n``-port window is free right now.

    Localhost-smoke quality (there is a bind race between probe and worker),
    which is all the launcher promises; collisions surface as worker crashes.
    """
    for _ in range(32):
        base = _free_tcp_port()
        if all(_is_free(base + offset) for offset in range(1, n)):
            return base
    raise RuntimeError("could not find a free TCP port window")


def _is_free(port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        try:
            probe.bind(("127.0.0.1", port))
        except OSError:
            return False
        return True


def _worker_argv(spec: ClusterSpec, replica_id: int) -> List[str]:
    return [
        sys.executable,
        "-m",
        "repro.cluster.worker",
        "--replica-id",
        str(replica_id),
        "--spec",
        json.dumps(dataclasses.asdict(spec)),
    ]


def _collect_stdout(handle: WorkerHandle, frames: "queue_mod.Queue") -> None:
    stream = handle.process.stdout
    if stream is None:
        handle.stdout_closed = True
        return
    for line in stream:
        payload = wire.parse_line(line)
        if payload is None:
            if line.strip():
                handle.stderr_tail.append(line.strip())
            continue
        event = payload.get("event")
        if event == wire.EVENT_READY:
            handle.ready = True
        elif event == wire.EVENT_REPORT:
            handle.report = payload
        try:
            frames.put_nowait(payload)
        except Exception:  # noqa: BLE001 - obs must never block the collector
            pass
    handle.stdout_closed = True


def _collect_stderr(handle: WorkerHandle) -> None:
    stream = handle.process.stderr
    if stream is None:
        return
    for line in stream:
        handle.stderr_tail.append(line.rstrip())
        del handle.stderr_tail[:-20]


def _terminate(handles: List[WorkerHandle]) -> None:
    for handle in handles:
        if handle.process.poll() is None:
            handle.process.terminate()
    deadline = time.monotonic() + TERM_GRACE_S
    for handle in handles:
        remaining = deadline - time.monotonic()
        try:
            handle.process.wait(timeout=max(0.1, remaining))
        except subprocess.TimeoutExpired:
            handle.process.kill()
            handle.process.wait()


def run_cluster(
    spec: ClusterSpec,
    watch: bool = False,
    serve_port: Optional[int] = None,
    artifacts_dir: Optional[str] = None,
) -> ClusterResult:
    """Boot the cluster described by ``spec``, wait for it, aggregate results.

    Args:
        spec: the deterministic deployment description.
        watch: render the live per-replica dashboard to stderr (in-place on
            a TTY, periodic lines otherwise).
        serve_port: bind a loopback HTTP endpoint on this port (0 picks an
            ephemeral one; see ``ClusterResult.serve_port``) serving the live
            state as Prometheus ``/metrics`` and JSON ``/state``.
        artifacts_dir: directory for forensics artifacts.  With ``spec.obs``
            the merged cluster Chrome trace is always written there; the
            merged flight dump is written on any crash or invariant
            violation.
    """
    cleanup_dir: Optional[tempfile.TemporaryDirectory] = None
    if spec.transport == "uds" and not spec.socket_dir:
        cleanup_dir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        spec = dataclasses.replace(spec, socket_dir=cleanup_dir.name)
    if spec.transport == "tcp" and spec.base_port <= 0:
        spec = dataclasses.replace(spec, base_port=_pick_base_port(spec.n))

    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )

    watcher = ClusterWatcher(
        n=spec.n, total_transactions=spec.transactions, render=watch
    )
    frames: "queue_mod.Queue" = queue_mod.Queue()
    watcher.start(frames)
    server = None
    bound_port: Optional[int] = None
    if serve_port is not None:
        from repro.obs.serve import WatchServer

        server = WatchServer(watcher, serve_port)
        server.start()
        bound_port = server.port
        log.info("cluster obs endpoint on http://127.0.0.1:%d", bound_port)

    handles: List[WorkerHandle] = []
    threads: List[threading.Thread] = []
    started_at = time.monotonic()
    try:
        for replica_id in spec.committee:
            process = subprocess.Popen(
                _worker_argv(spec, replica_id),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            handle = WorkerHandle(replica_id=replica_id, process=process)
            handles.append(handle)
            thread = threading.Thread(
                target=_collect_stdout, args=(handle, frames), daemon=True
            )
            thread.start()
            threads.append(thread)
            thread = threading.Thread(
                target=_collect_stderr, args=(handle,), daemon=True
            )
            thread.start()
            threads.append(thread)

        # Wait until every worker exits, a worker crashes, or the overall
        # budget runs out.  Workers self-terminate once their chain holds the
        # full workload, so the happy path is "all exited 0 with reports".
        deadline = started_at + spec.timeout + TERM_GRACE_S
        while time.monotonic() < deadline:
            states = [handle.process.poll() for handle in handles]
            if all(code is not None for code in states):
                break
            crashed = [handle for handle in handles if handle.crashed]
            if crashed:
                for handle in crashed:
                    log.error(
                        "replica %d crashed (exit code %s)%s",
                        handle.replica_id,
                        handle.process.returncode,
                        (
                            ": " + handle.stderr_tail[-1]
                            if handle.stderr_tail
                            else ""
                        ),
                    )
                    watcher.note_crash(
                        handle.replica_id, handle.process.returncode
                    )
                _terminate(handles)
                break
            time.sleep(0.05)
        else:
            log.error(
                "cluster timed out after %.1fs; terminating workers", spec.timeout
            )
        _terminate(handles)
        for thread in threads:
            thread.join(timeout=1.0)
    except BaseException:
        _terminate(handles)
        raise
    finally:
        watcher.finish()
        if server is not None:
            server.stop()
        if cleanup_dir is not None:
            cleanup_dir.cleanup()
    duration = time.monotonic() - started_at

    reports = {
        handle.replica_id: handle.report
        for handle in handles
        if handle.report is not None
    }
    crashes = {
        handle.replica_id: handle.process.returncode
        for handle in handles
        if handle.crashed
    }
    total = max(
        (report["total_transactions"] for report in reports.values()),
        default=spec.transactions,
    )
    committed = min(
        (report["committed"] for report in reports.values()), default=0
    )
    pooled: List[float] = []
    for report in reports.values():
        pooled.extend(report.get("commit_latencies_s", ()))
    latency = summarize_latencies(pooled)
    zero_loss = bool(reports) and all(
        report["conserved_ok"] and report["commit_rejected"] == 0
        for report in reports.values()
    )
    violations = list(watcher.violations)
    ok = (
        not crashes
        and not violations
        and len(reports) == spec.n
        and committed >= total
        and zero_loss
        and all(report["status"] == "ok" for report in reports.values())
    )

    trace_dump = flight_dump = None
    if artifacts_dir is not None and spec.obs:
        os.makedirs(artifacts_dir, exist_ok=True)
        trace_dump = watcher.write_chrome_trace(
            os.path.join(artifacts_dir, TRACE_ARTIFACT)
        )
        log.info("merged cluster trace written to %s", trace_dump)
        if crashes or violations:
            flight_dump = watcher.write_flight_dump(
                os.path.join(artifacts_dir, FLIGHT_ARTIFACT)
            )
            log.error(
                "crash/violation forensics: merged flight dump at %s "
                "(%d crash(es), %d violation(s))",
                flight_dump,
                len(crashes),
                len(violations),
            )

    return ClusterResult(
        ok=ok,
        spec=spec,
        duration_s=duration,
        committed=committed,
        total_transactions=total,
        throughput_tx_per_s=(committed / duration if duration > 0 else 0.0),
        latency_p50_s=latency.get("p50") if pooled else None,
        latency_p99_s=latency.get("p99") if pooled else None,
        zero_loss=zero_loss,
        crashes=crashes,
        reports=reports,
        violations=violations,
        obs_frames=watcher.obs_frames,
        trace_dump=trace_dump,
        flight_dump=flight_dump,
        serve_port=bound_port,
    )
