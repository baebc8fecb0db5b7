"""Comparative metric reports across a scenario sweep.

Consumes the records of a :class:`~repro.scenarios.store.ResultStore` (each
holding a spec, a result row and — when the cell ran with the ``metrics``
back-end — a snapshot under ``"telemetry"``) and renders aligned text tables
comparing cells side by side:

* **messages by protocol** — per-protocol/kind message and byte counts from
  the network simulator;
* **latency histograms** — per-phase p50/p95/p99 + mean for every histogram
  metric (RBC echo/ready, binary consensus rounds, SBC decisions, membership
  phases);
* **timelines** — the detection → exclusion → merge marks of each cell.

This is the backend of ``python -m repro.scenarios report``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import split_metric_key

Record = Dict[str, Any]
Table = Tuple[str, List[Dict[str, Any]]]


def telemetry_cells(records: Iterable[Record]) -> List[Tuple[str, Dict[str, Any]]]:
    """``(label, snapshot)`` for every record that carries telemetry.

    The label is the one the store wrote (``spec.label()``, params included),
    else the spec hash.  Structurally empty snapshots — instrumented cells of
    model-only families that never build a simulator — are skipped: they
    contain nothing a report could render.
    """
    cells: List[Tuple[str, Dict[str, Any]]] = []
    for record in records:
        snapshot = record.get("telemetry")
        if snapshot and any(
            snapshot.get(section)
            for section in ("counters", "gauges", "histograms", "timelines")
        ):
            cells.append((record.get("label") or record.get("hash", "?"), snapshot))
    return cells


def _matches(metric: str, metric_filter: Optional[str]) -> bool:
    return metric_filter is None or metric_filter in metric


def message_table(
    cells: List[Tuple[str, Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    """Per-cell, per-protocol message and byte counts."""
    rows: List[Dict[str, Any]] = []
    for label, snapshot in cells:
        counters = snapshot.get("counters", {})
        per_protocol: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for key, value in counters.items():
            name, labels = split_metric_key(key)
            if name not in ("net.messages_sent", "net.bytes_sent"):
                continue
            group = (labels.get("protocol", "?"), labels.get("kind", "?"))
            entry = per_protocol.setdefault(
                group, {"cell": label, "protocol": group[0], "kind": group[1],
                        "messages": 0, "bytes": 0}
            )
            if name == "net.messages_sent":
                entry["messages"] = int(value)
            else:
                entry["bytes"] = int(value)
        rows.extend(
            per_protocol[group] for group in sorted(per_protocol)
        )
    return rows


def counter_table(
    cells: List[Tuple[str, Dict[str, Any]]],
    metric_filter: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Per-cell event counters (commits, merges, exclusions, deliveries).

    ``net.messages_sent``/``net.bytes_sent`` are rendered by
    :func:`message_table` instead and skipped here.
    """
    rows: List[Dict[str, Any]] = []
    for label, snapshot in cells:
        for key, value in snapshot.get("counters", {}).items():
            name, _ = split_metric_key(key)
            if name in ("net.messages_sent", "net.bytes_sent"):
                continue
            if not _matches(name, metric_filter):
                continue
            rows.append({"cell": label, "counter": key, "value": value})
    rows.sort(key=lambda row: (row["counter"], row["cell"]))
    return rows


def histogram_table(
    cells: List[Tuple[str, Dict[str, Any]]],
    metric_filter: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Per-cell histogram summaries, comparable across the sweep."""
    rows: List[Dict[str, Any]] = []
    for label, snapshot in cells:
        for key, summary in snapshot.get("histograms", {}).items():
            name, labels = split_metric_key(key)
            if not _matches(name, metric_filter):
                continue
            rows.append(
                {
                    "cell": label,
                    "metric": key,
                    "count": summary.get("count", 0),
                    "mean": _fmt(summary.get("mean")),
                    "p50": _fmt(summary.get("p50")),
                    "p95": _fmt(summary.get("p95")),
                    "p99": _fmt(summary.get("p99")),
                    "max": _fmt(summary.get("max")),
                }
            )
    rows.sort(key=lambda row: (row["metric"], row["cell"]))
    return rows


def timeline_table(
    cells: List[Tuple[str, Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    """First-occurrence times of every timeline mark, per cell."""
    rows: List[Dict[str, Any]] = []
    for label, snapshot in cells:
        for key, summary in snapshot.get("timelines", {}).items():
            firsts = summary.get("first", {})
            ordered = sorted(
                (at, mark) for mark, at in firsts.items() if at is not None
            )
            for at, mark in ordered:
                rows.append(
                    {"cell": label, "timeline": key, "mark": mark,
                     "t_s": round(at, 3)}
                )
    return rows


def gauge_table(
    cells: List[Tuple[str, Dict[str, Any]]],
    metric_filter: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Per-cell gauge values (last/min/max)."""
    rows: List[Dict[str, Any]] = []
    for label, snapshot in cells:
        for key, summary in snapshot.get("gauges", {}).items():
            name, _ = split_metric_key(key)
            if not _matches(name, metric_filter):
                continue
            rows.append(
                {
                    "cell": label,
                    "metric": key,
                    "last": _fmt(summary.get("value")),
                    "min": _fmt(summary.get("min")),
                    "max": _fmt(summary.get("max")),
                    "writes": summary.get("writes", 0),
                }
            )
    rows.sort(key=lambda row: (row["metric"], row["cell"]))
    return rows


def build_tables(
    records: Iterable[Record],
    metric_filter: Optional[str] = None,
) -> List[Table]:
    """All report tables for the given records (empty tables are dropped)."""
    cells = telemetry_cells(records)
    tables: List[Table] = [
        ("messages by protocol", message_table(cells)),
        ("counters", counter_table(cells, metric_filter)),
        ("latency histograms (s)", histogram_table(cells, metric_filter)),
        ("gauges", gauge_table(cells, metric_filter)),
        ("timelines (simulated s)", timeline_table(cells)),
    ]
    return [(title, rows) for title, rows in tables if rows]


def render_report(
    records: Iterable[Record],
    metric_filter: Optional[str] = None,
) -> str:
    """Render the comparative report as aligned text tables."""
    from repro.analysis.metrics import format_table

    records = list(records)
    cells = telemetry_cells(records)
    if not cells:
        return (
            "no telemetry metrics in the store — run a simulation family with "
            "--instrument metrics (or ScenarioSpec(instrument=\"metrics\")) to "
            "record snapshots"
        )
    sections = [f"telemetry report — {len(cells)} instrumented cells"]
    for title, rows in build_tables(records, metric_filter):
        sections.append(f"\n== {title} ==\n{format_table(rows)}")
    return "\n".join(sections)


def _fmt(value: Optional[float]) -> Optional[float]:
    if value is None:
        return None
    return round(float(value), 4)
