"""``python -m repro.cluster``: boot a real localhost cluster and report.

Example::

    PYTHONPATH=src python -m repro.cluster --n 4 --transport uds \\
        --transactions 200 --batch-size 50

prints wall-clock throughput and p50/p99 time-to-commit measured across the
whole committee, where that time went — every worker's ``zlb.phase.*_s``
histogram rows (mempool wait, reliable broadcast, binary consensus, commit)
and the dominant phase — and exits non-zero if any replica crashed, timed
out, violated zero-loss accounting or tripped an online invariant monitor.

Observability flags:

* ``--obs`` — the cluster's single instrumentation switch: every worker
  traces and records its flight ring; workers stream live obs frames and
  ship their spans for the merged cluster trace.  The invariant
  monitors need no switch: every worker's report carries its violations.
* ``--watch`` — live per-replica dashboard on stderr (in-place on a TTY).
* ``--serve PORT`` — loopback HTTP endpoint with Prometheus ``/metrics`` and
  JSON ``/state`` (implies nothing else; combine with ``--obs`` for the full
  per-replica series).
* ``--artifacts DIR`` — where the merged Chrome trace (always, with
  ``--obs``) and the crash/violation flight dump get written.
* ``--json PATH`` writes the compact machine-readable result;
  ``--json-full`` switches it to the exhaustive per-replica reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.cluster.fixture import ClusterSpec
from repro.cluster.launcher import run_cluster
from repro.common.errors import ConfigurationError
from repro.common.logging import configure_logging
from repro.obs.export import PHASE_PREFIX, dominant_phase, render_report


def _parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro.cluster",
        description="Run an n-replica ZLB cluster as OS processes on localhost.",
    )
    parser.add_argument("--n", type=int, default=4, help="committee size")
    parser.add_argument(
        "--transport",
        choices=("uds", "tcp"),
        default="uds",
        help="socket flavour between replicas (default: uds)",
    )
    parser.add_argument(
        "--transactions", type=int, default=200, help="client transfers to drive"
    )
    parser.add_argument(
        "--batch-size", type=int, default=50, help="transactions per proposal"
    )
    parser.add_argument(
        "--accounts", type=int, default=16, help="funded client accounts"
    )
    parser.add_argument("--seed", type=int, default=0, help="determinism seed")
    parser.add_argument(
        "--base-port",
        type=int,
        default=0,
        help="first TCP port (tcp only; 0 = pick a free window)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="wall-clock budget in seconds"
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="activate cross-process tracing, obs frames and flight recording",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="live per-replica dashboard on stderr",
    )
    parser.add_argument(
        "--serve",
        type=int,
        default=None,
        metavar="PORT",
        help="loopback HTTP endpoint (/metrics, /state); 0 picks a free port",
    )
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="directory for the merged trace / flight-dump artifacts",
    )
    parser.add_argument(
        "--json", default=None, help="write the compact JSON result to this path"
    )
    parser.add_argument(
        "--json-full",
        action="store_true",
        help="make --json exhaustive (full per-replica reports)",
    )
    parser.add_argument("--log-level", default=None, help="e.g. info, debug")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    configure_logging(args.log_level)
    try:
        spec = ClusterSpec(
            n=args.n,
            transport=args.transport,
            transactions=args.transactions,
            batch_size=args.batch_size,
            accounts=args.accounts,
            seed=args.seed,
            base_port=args.base_port,
            timeout=args.timeout,
            obs=args.obs,
        )
    except ConfigurationError as error:
        print(f"repro.cluster: error: {error}", file=sys.stderr)
        return 2
    result = run_cluster(
        spec,
        watch=args.watch,
        serve_port=args.serve,
        artifacts_dir=args.artifacts,
    )

    print(
        f"cluster n={spec.n} transport={spec.transport} "
        f"transactions={result.total_transactions} "
        f"batch={spec.batch_size} seed={spec.seed}"
        + (" obs" if spec.obs else "")
    )
    print(
        f"  committed {result.committed}/{result.total_transactions} "
        f"in {result.duration_s:.2f}s wall clock "
        f"({result.throughput_tx_per_s:.1f} tx/s)"
    )
    if result.latency_p50_s is not None:
        print(
            f"  time-to-commit p50 {result.latency_p50_s * 1000:.1f}ms "
            f"p99 {result.latency_p99_s * 1000:.1f}ms"
        )
    telemetry = [
        (f"replica {replica_id}", report["telemetry"])
        for replica_id, report in sorted(result.reports.items())
        if report.get("telemetry")
    ]
    if telemetry:
        print(render_report(telemetry, metric_filter=PHASE_PREFIX))
        print(f"  dominant phase: {dominant_phase(s for _, s in telemetry)}")
    print(f"  zero-loss accounting: {'ok' if result.zero_loss else 'VIOLATED'}")
    if result.obs_frames:
        print(f"  obs frames received: {result.obs_frames}")
    for violation in result.violations:
        print(
            f"  INVARIANT VIOLATION [{violation['name']}] "
            f"replica {violation['replica_id']}: {violation['detail']}"
        )
    for replica_id, code in sorted(result.crashes.items()):
        print(f"  replica {replica_id} crashed (exit code {code})")
    for replica_id, report in sorted(result.reports.items()):
        if report["status"] != "ok":
            print(f"  replica {replica_id} finished with status {report['status']}")
    if result.trace_dump:
        print(f"  merged cluster trace: {result.trace_dump}")
    if result.flight_dump:
        print(f"  merged flight dump: {result.flight_dump}")
    print(f"  result: {'OK' if result.ok else 'FAILED'}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                result.to_json(full=args.json_full),
                handle,
                indent=2,
                sort_keys=True,
            )
        print(f"  wrote {args.json}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
