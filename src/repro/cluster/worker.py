"""Per-replica subprocess: one ZLB node on an asyncio transport.

Launched by :mod:`repro.cluster.launcher` as ``python -m repro.cluster.worker
--replica-id I --spec JSON``, where ``JSON`` is the launcher's
:class:`~repro.cluster.fixture.ClusterSpec` as a dict of its fields.  The
worker rebuilds its slice of the deployment from that spec, serves
its endpoint, dials its peers, feeds its workload share into the mempool and
runs consensus until every transaction in the cluster is committed locally.

It speaks the one-line-JSON protocol of :mod:`repro.cluster.protocol` on
stdout: ``ready`` once the listener is bound, ``connected`` once every peer
dial completed, periodic ``obs`` frames while the spec's ``obs`` is set, and
exactly one final ``report``.

The worker always counts and checks: a metrics registry's snapshot and its
replica's invariant ``violations`` ride in the report, and the replica's
``zlb.commit_latency_s`` histogram is the one measurement of wall-clock
time-to-commit (the report's ``commit_latencies_s`` are its retained
samples).  With ``obs`` set its :class:`~repro.obs.core.Probe` also carries
the trace runtime (tracer in a per-replica id namespace, flight recorder) —
the ``"all"`` level of a simulator cell — and it streams periodic obs
frames: committed counters, delivered messages per second, mempool depth,
p50/p99 time-to-commit, per-instance commit digests (the launcher's
cross-replica agreement input), any monitor violations and the
flight-recorder ring increment since the previous frame, with a count of
whatever that increment had to leave out.  The final report additionally
carries the worker's spans and trace events so the launcher can merge one
cluster-wide causal trace.  Without it the worker emits zero obs frames and
its report is byte-identical to the plain protocol.

``SIGTERM`` drains cleanly: the worker stops waiting, emits its report with
``"status": "terminated"`` and exits 0, so a launcher-initiated shutdown is
distinguishable from a crash (no report, non-zero exit).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from itertools import islice
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.metrics import percentiles
from repro.cluster import protocol as wire
from repro.cluster.fixture import ClusterSpec, build_node, endpoints_for
from repro.network.asyncio_transport import AsyncioTransport
from repro.obs.core import Probe
from repro.obs.metrics import TelemetryRegistry
from repro.obs.trace import TraceRuntime, replica_id_base

#: How often the commit-completion poll wakes up.
POLL_INTERVAL_S = 0.02

#: Cadence of obs frames in wall-clock seconds.
DEFAULT_OBS_CADENCE_S = 0.25

#: Per-replica flight-recorder ring capacity.
DEFAULT_RING_CAPACITY = 512

#: Per-instance commit digests carried per obs frame (newest instances).
COMMIT_DIGEST_WINDOW = 8


def _parse_args(argv: Optional[List[str]] = None) -> Tuple[int, ClusterSpec]:
    """``(replica id, spec)`` from the command line the launcher wrote."""
    parser = argparse.ArgumentParser(prog="repro.cluster.worker")
    parser.add_argument("--replica-id", type=int, required=True)
    parser.add_argument("--spec", required=True, help="the ClusterSpec as JSON")
    args = parser.parse_args(argv)
    return args.replica_id, ClusterSpec(**json.loads(args.spec))


class _ObsShipper:
    """Builds the periodic obs frames of one worker.

    Holds the incremental-shipping cursors: the flight-ring sequence number
    and violation count already sent, and the committed and delivered counts
    at the previous frame (for the per-frame tx/s and events/s rates) — plus
    the running totals of what the shipped forensics left out, so no hole in
    a merged flight dump or trace goes unreported.
    """

    def __init__(self, replica_id, replica, transport, probe, loop):
        self.replica_id = replica_id
        self.replica = replica
        self.transport = transport
        self.trace = probe.trace
        self.latency = probe.metrics.histogram("zlb.commit_latency_s")
        self.loop = loop
        self.frames_sent = 0
        #: Flight events cut from oversized frames / evicted from the ring
        #: before a frame could carry them, over the whole run.
        self.ring_skipped = 0
        self.recorder_evicted = 0
        self._last_ring_seq = -1
        self._last_violations = 0
        self._last_committed = 0
        self._last_delivered = 0
        self._last_t: Optional[float] = None

    def _ring_increment(self) -> Dict[str, Any]:
        """Flight events recorded since the previous frame, newest
        ``MAX_RING_EVENTS_PER_FRAME`` at most, with the exact loss: sequence
        numbers are dense, so what was recorded since the cursor and is
        neither still in the ring (``evicted``) nor in the frame (``skipped``)
        is known, not guessed."""
        recorder = self.trace.recorder
        newest_seq = recorder.recorded - 1
        ring = recorder.events_since(self._last_ring_seq)
        evicted = newest_seq - self._last_ring_seq - len(ring)
        skipped = max(0, len(ring) - wire.MAX_RING_EVENTS_PER_FRAME)
        if skipped:
            ring = ring[skipped:]
        self._last_ring_seq = newest_seq
        self.ring_skipped += skipped
        self.recorder_evicted += evicted
        return {"ring": ring, "ring_skipped": skipped, "recorder_evicted": evicted}

    def frame(self) -> Dict[str, Any]:
        now = self.loop.time()
        transport = self.transport
        blockchain = self.replica.blockchain
        committed = blockchain.transactions_committed
        delivered = transport.messages_delivered
        if self._last_t is None:
            tx_per_s = events_per_sec = 0.0
        else:
            elapsed = max(now - self._last_t, 1e-9)
            tx_per_s = (committed - self._last_committed) / elapsed
            events_per_sec = (delivered - self._last_delivered) / elapsed
        self._last_committed = committed
        self._last_delivered = delivered
        self._last_t = now
        samples = self.latency.samples

        # Blocks are appended in instance order: the newest are the last keys.
        by_instance = blockchain.blocks_by_instance
        recent = list(islice(reversed(by_instance), COMMIT_DIGEST_WINDOW))
        commits = {
            str(instance): by_instance[instance].block_hash
            for instance in reversed(recent)
        }

        monitors = self.replica.monitors
        fresh_violations = [
            violation.to_dict()
            for violation in monitors.violations[self._last_violations :]
        ]
        self._last_violations = len(monitors.violations)

        self.frames_sent += 1
        return {
            "event": wire.EVENT_OBS,
            "replica_id": self.replica_id,
            "t": now,
            "committed": committed,
            "blocks": len(by_instance),
            "tx_per_s": tx_per_s,
            "events_per_sec": events_per_sec,
            "mempool": len(blockchain.mempool),
            "peers": len(transport.connected_peers()),
            "messages_delivered": delivered,
            "commit_latency": percentiles(samples, (50.0, 99.0)) if samples else {},
            "spans": len(self.trace.tracer.spans),
            "commits": commits,
            "violations": fresh_violations,
            **self._ring_increment(),
        }

    def report_extra(self) -> Dict[str, Any]:
        """The obs block of the final report: spans, events, and how much
        of each the size caps cut."""
        tracer = self.trace.tracer
        spans = tracer.span_records()[-wire.MAX_REPORT_SPANS :]
        events = tracer.events[-wire.MAX_REPORT_SPANS :]
        return {
            "frames_sent": self.frames_sent,
            "spans": spans,
            "events": events,
            "spans_truncated": (
                len(tracer.spans) - len(spans) + len(tracer.events) - len(events)
            ),
            "ring_skipped": self.ring_skipped,
            "recorder_evicted": self.recorder_evicted,
            "recorder_events": len(self.trace.recorder),
        }


async def _run(spec: ClusterSpec, replica_id: int) -> int:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    terminated = False

    def _on_sigterm() -> None:
        nonlocal terminated
        terminated = True
        stop.set()

    loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
    loop.add_signal_handler(signal.SIGINT, _on_sigterm)

    node = build_node(spec, replica_id)
    replica = node.replica

    trace = None
    if spec.obs:
        trace = TraceRuntime.enabled(
            recorder_capacity=DEFAULT_RING_CAPACITY,
            id_base=replica_id_base(replica_id),
        )
    probe = Probe(metrics=TelemetryRegistry(), trace=trace)

    transport = AsyncioTransport(replica_id, endpoints_for(spec), probe=probe)
    transport.add_process(replica)
    await transport.start()
    offset = wire.epoch_offset(loop)
    wire.emit(wire.ready_frame(replica_id, offset))
    await transport.connect(timeout=spec.timeout)
    wire.emit(wire.connected_frame(replica_id, transport.connected_peers()))

    # Stop as soon as the commit that completes the workload lands.
    original_on_commit = replica.on_commit

    def _hooked_on_commit(instance: int, decision) -> None:
        original_on_commit(instance, decision)
        if replica.blockchain.transactions_committed >= node.total_transactions:
            stop.set()

    replica.on_commit = _hooked_on_commit

    shipper: Optional[_ObsShipper] = None
    obs_timer: Optional[int] = None
    if spec.obs:
        shipper = _ObsShipper(replica_id, replica, transport, probe, loop)

        def _ship() -> None:
            nonlocal obs_timer
            wire.emit(shipper.frame())
            obs_timer = transport.schedule(
                DEFAULT_OBS_CADENCE_S, _ship, owner=replica_id
            )

        obs_timer = transport.schedule(DEFAULT_OBS_CADENCE_S, _ship, owner=replica_id)

    started_at = loop.time()
    accepted = replica.submit_transactions(node.share)

    transport.start_processes()
    replica.submit_instances(node.instances_needed)

    deadline = started_at + spec.timeout
    while not stop.is_set():
        remaining = deadline - loop.time()
        if remaining <= 0:
            break
        try:
            await asyncio.wait_for(stop.wait(), timeout=min(remaining, POLL_INTERVAL_S))
        except asyncio.TimeoutError:
            if replica.blockchain.transactions_committed >= node.total_transactions:
                break
            # Liveness: under real concurrency a slow proposal can miss an
            # instance's decided union, stranding its transactions in the
            # proposer's mempool.  Whenever every requested instance has
            # decided but the chain is still short of the workload, every
            # worker symmetrically budgets one more instance to drain the
            # stragglers (peers join instances up to their own target).
            if (
                replica.next_instance >= replica.target_instances
                and len(replica.history.decided) >= replica.target_instances
            ):
                replica.submit_instances(1)
    finished_at = loop.time()
    if obs_timer is not None:
        transport.cancel(obs_timer)

    committed = replica.blockchain.transactions_committed
    done = committed >= node.total_transactions
    if terminated:
        status = "terminated"
    elif done:
        status = "ok"
    else:
        status = "timeout"
    report = {
        "event": wire.EVENT_REPORT,
        "status": status,
        "replica_id": replica_id,
        "accepted": accepted,
        "committed": committed,
        "total_transactions": node.total_transactions,
        "blocks": len(replica.blockchain.blocks_by_instance),
        "duration_s": finished_at - started_at,
        "commit_latencies_s": probe.metrics.histogram("zlb.commit_latency_s").samples,
        "conserved_ok": (
            replica.blockchain.conserved_total() == node.conserved_baseline
        ),
        "commit_rejected": replica.blockchain.stats.commit_rejected,
        "transport": {
            "messages_sent": transport.messages_sent,
            "messages_delivered": transport.messages_delivered,
            "messages_dropped": transport.messages_dropped,
            "bytes_sent": transport.bytes_sent,
        },
        "chain": replica.chain_summary(),
        "telemetry": probe.metrics.snapshot(),
        "violations": [
            violation.to_dict() for violation in replica.monitors.violations
        ],
    }
    if shipper is not None:
        # One last frame so the launcher's dashboard/forensics see the final
        # state (and the tail of the flight ring) even on a drain.
        wire.emit(shipper.frame())
        report["epoch_offset"] = offset
        report["obs"] = shipper.report_extra()
    wire.emit(report)
    await transport.close()
    return 0 if status in ("ok", "terminated") else 1


def main(argv: Optional[List[str]] = None) -> int:
    replica_id, spec = _parse_args(argv)
    return asyncio.run(_run(spec, replica_id))


if __name__ == "__main__":
    sys.exit(main())
