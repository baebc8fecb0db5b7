"""Critical-path analysis: where does time-to-commit actually go?

Consumes the tracer's structured point events rather than the span tree — the
protocol sites emit exactly the phase boundaries the analysis needs:

* ``mempool.admit {tx}`` / ``mempool.batch {instance, txs}`` — admission and
  the moment a transaction leaves the mempool inside a proposal;
* ``sbc.propose {instance}`` — the replica starts the instance (phase start);
* ``rbc.deliver {instance, slot}`` — a slot's reliable broadcast delivered;
* ``bin.decide {instance, slot}`` — a slot's binary consensus decided;
* ``zlb.commit {instance, ...}`` — the block was appended locally.

Per committed ``(replica, instance)`` the commit latency decomposes into
``rbc`` (propose → last RBC delivery), ``binary`` (→ last binary decision)
and ``commit`` (→ local append); the ``mempool`` phase is the per-transaction
wait from admission to the proposal batch that carried it.  Phases aggregate
across samples into p50/p95/max/mean, and the phase with the largest mean is
reported as dominant — the number the ROADMAP's n=100–300 scaling work needs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.trace import Tracer

#: Phase order in reports; ``total`` is propose -> commit.
PHASES = ("mempool", "rbc", "binary", "commit")


def critical_path(tracer: Tracer) -> Dict[str, Any]:
    """Aggregate phase attribution across all committed instances."""
    # repro.analysis imports lazily, like the metrics Histogram: this module
    # is re-exported by the package the simulator imports.
    from repro.analysis.metrics import percentiles

    samples: Dict[str, List[float]] = {phase: [] for phase in PHASES}
    samples["total"] = []
    instances = 0
    for (replica, _instance), marks in _instance_marks(tracer).items():
        propose = marks.get("propose")
        commit = marks.get("commit")
        if propose is None or commit is None:
            continue
        instances += 1
        rbc_end = marks.get("rbc_end", propose)
        bin_end = max(marks.get("bin_end", rbc_end), rbc_end)
        commit = max(commit, bin_end)
        samples["rbc"].append(rbc_end - propose)
        samples["binary"].append(bin_end - rbc_end)
        samples["commit"].append(commit - bin_end)
        samples["total"].append(commit - propose)
    samples["mempool"].extend(_mempool_waits(tracer))
    phases: Dict[str, Any] = {}
    for phase, values in samples.items():
        summary = percentiles(values, points=(50.0, 95.0))
        summary["max"] = max(values) if values else 0.0
        summary["mean"] = sum(values) / len(values) if values else 0.0
        summary["count"] = len(values)
        phases[phase] = summary
    dominant = max(
        PHASES,
        key=lambda phase: phases[phase]["mean"] if phases[phase]["count"] else -1.0,
    )
    return {
        "instances": instances,
        "phases": phases,
        "dominant_phase": dominant if instances or phases["mempool"]["count"] else None,
    }


def _instance_marks(tracer: Tracer) -> Dict[Tuple[Any, Any], Dict[str, float]]:
    """Phase boundary times per (replica, instance)."""
    marks: Dict[Tuple[Any, Any], Dict[str, float]] = {}
    for event in tracer.events:
        name = event["name"]
        if name not in ("sbc.propose", "rbc.deliver", "bin.decide", "zlb.commit"):
            continue
        instance = event["attrs"].get("instance")
        if instance is None:
            continue
        entry = marks.setdefault((event["replica"], instance), {})
        t = event["t"]
        if name == "sbc.propose":
            entry.setdefault("propose", t)
        elif name == "rbc.deliver":
            entry["rbc_end"] = max(entry.get("rbc_end", t), t)
        elif name == "bin.decide":
            entry["bin_end"] = max(entry.get("bin_end", t), t)
        elif name == "zlb.commit":
            entry.setdefault("commit", t)
    return marks


def _mempool_waits(tracer: Tracer) -> List[float]:
    """Per-transaction admission -> proposal-batch waits, per replica."""
    admits: Dict[Tuple[Any, Any], float] = {}
    waits: List[float] = []
    for event in tracer.events:
        name = event["name"]
        if name == "mempool.admit":
            tx = event["attrs"].get("tx")
            if tx is not None:
                admits.setdefault((event["replica"], tx), event["t"])
        elif name == "mempool.batch":
            replica = event["replica"]
            t = event["t"]
            for tx in event["attrs"].get("txs", ()):
                admitted = admits.pop((replica, tx), None)
                if admitted is not None:
                    waits.append(t - admitted)
    return waits


def render_critical_path(summary: Dict[str, Any]) -> str:
    """Fixed-width text table of the phase attribution (CLI output)."""
    lines = [
        f"critical path across {summary['instances']} committed "
        f"(replica, instance) sample(s):",
        f"  {'phase':<8} {'count':>6} {'p50':>10} {'p95':>10} "
        f"{'max':>10} {'mean':>10}",
    ]
    for phase in PHASES + ("total",):
        row = summary["phases"][phase]
        lines.append(
            f"  {phase:<8} {row['count']:>6} {row['p50']:>10.4f} "
            f"{row['p95']:>10.4f} {row['max']:>10.4f} {row['mean']:>10.4f}"
        )
    dominant = summary.get("dominant_phase")
    if dominant is not None:
        lines.append(f"  dominant phase: {dominant}")
    return "\n".join(lines)
