"""Real-cluster deployment: ZLB replicas as OS processes over sockets.

``python -m repro.cluster`` boots an n-replica localhost cluster in which
every replica is a separate OS process running the unmodified protocol stack
on an :class:`~repro.network.asyncio_transport.AsyncioTransport` (TCP or
UNIX-domain sockets), drives the payment workload through it and reports
*wall-clock* throughput and p50/p99 time-to-commit.

The package splits into:

* :mod:`repro.cluster.fixture` — deterministic per-process reconstruction of
  the deployment (keys, genesis, workload shares) so every worker builds the
  byte-identical genesis without any coordination traffic.
* :mod:`repro.cluster.protocol` — the worker↔launcher JSON-lines protocol
  (ready/connected/obs/report frames, epoch offsets).
* :mod:`repro.cluster.worker` — the per-replica subprocess entry point; with
  ``--obs`` its probe carries every back-end (the simulator's ``"all"``
  level) and it streams live obs frames.
* :mod:`repro.cluster.watch` — launcher-side aggregation plane: the
  per-replica rows of the shared :class:`~repro.obs.watch.Watcher`,
  cross-replica invariant monitors, causal flight-dump and trace merging.
* :mod:`repro.cluster.launcher` — spawns workers, watches for crashes,
  aggregates their reports and writes the forensics artifacts.
"""

from repro.cluster.fixture import ClusterSpec, build_node, endpoints_for
from repro.cluster.launcher import ClusterResult, run_cluster
from repro.cluster.watch import ClusterWatcher

__all__ = [
    "ClusterSpec",
    "ClusterResult",
    "ClusterWatcher",
    "build_node",
    "endpoints_for",
    "run_cluster",
]
