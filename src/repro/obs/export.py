"""Every artefact the instrumentation writes, in one place.

Four generic writers — JSON, JSONL, CSV over flat dict rows, Prometheus text
over ``(family, labels, value)`` samples — and one Chrome-trace builder; the
rest of the module flattens the back-ends' snapshots into the rows those
writers take — the rows ``python -m repro.scenarios report`` prints
(:func:`render_report`) and its ``--csv`` writes.  Exporters never touch live
metric objects, so they work identically on a run that just finished and on
a snapshot replayed from a scenario result store.

The Chrome trace event format (the ``traceEvents`` array understood by
``chrome://tracing`` and https://ui.perfetto.dev) maps naturally onto traced
runs: one *process* row per replica, one *thread* row per trace (so a
consensus instance's causal tree reads left to right on its own lane),
complete ``"X"`` events for spans and instant ``"i"`` events for the
structured point events.  Timestamps are seconds scaled to microseconds, the
format's native unit.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.metrics import split_metric_key

#: Column order of metric CSV exports; metric-specific fields fill what applies.
METRIC_COLUMNS = (
    "cell", "type", "metric", "labels", "value", "count", "mean", "std",
    "ci95", "p50", "p95", "p99", "min", "max",
)

#: The summary fields a histogram row fills.
_HISTOGRAM_FIELDS = ("count", "mean", "std", "ci95", "p50", "p95", "p99", "min", "max")

#: Name prefix of the four histograms (``mempool``, ``rbc``, ``binary``,
#: ``commit``, each ``..._s``) that split time-to-commit into Fig. 2's phases.
PHASE_PREFIX = "zlb.phase."

#: Column order of sampled time-series CSV exports (plot-ready long form).
SERIES_COLUMNS = ("cell", "series", "t", "value")

#: Seconds -> Chrome trace microseconds.
_US = 1_000_000.0


# -- writers -------------------------------------------------------------------


def _open_for_write(path: Any, newline: Optional[str] = None):
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline=newline)


def write_json(payload: Any, path: Any, indent: Optional[int] = 2) -> str:
    """Write ``payload`` as one JSON document (sorted keys); returns the path."""
    with _open_for_write(path) as handle:
        json.dump(payload, handle, indent=indent, sort_keys=True)
        handle.write("\n")
    return os.fspath(path)


def write_jsonl(records: Iterable[Dict[str, Any]], path: Any) -> str:
    """Write one JSON object per line (sorted keys); returns the path."""
    with _open_for_write(path) as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return os.fspath(path)


def write_csv(
    rows: Iterable[Dict[str, Any]],
    path: Any,
    columns: Sequence[str] = METRIC_COLUMNS,
) -> str:
    """Write flat dict rows under a ``columns`` header; returns the path."""
    with _open_for_write(path, newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return os.fspath(path)


def prometheus_text(
    families: Sequence[Tuple[str, str]],
    samples: Iterable[Tuple[str, Dict[str, Any], Any]],
) -> str:
    """Prometheus text exposition of ``(family, labels, value)`` samples.

    ``families`` declares every ``(name, type)`` up front, in output order, so
    a family with no sample yet still announces its ``# TYPE`` line.
    """
    by_family: Dict[str, List[str]] = {name: [] for name, _ in families}
    for family, labels, value in samples:
        rendered = ",".join(
            '{}="{}"'.format(
                key, str(label).replace("\\", "\\\\").replace('"', '\\"')
            )
            for key, label in labels.items()
        )
        number = f"{value:.6f}" if isinstance(value, float) else str(value)
        by_family[family].append(
            f"{family}{{{rendered}}} {number}" if rendered else f"{family} {number}"
        )
    lines: List[str] = []
    for name, kind in families:
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(by_family[name])
    return "\n".join(lines) + "\n"


# -- metric snapshots ----------------------------------------------------------


def snapshot_rows(snapshot: Dict[str, Any], cell: str = "") -> List[Dict[str, Any]]:
    """Flatten a metrics snapshot into one dict row per metric.

    ``cell`` tags every row (the spec label when exporting a sweep), so rows
    from many cells concatenate into one comparable table.
    """
    rows: List[Dict[str, Any]] = []

    def add(kind: str, key: str, **fields: Any) -> None:
        name, labels = split_metric_key(key)
        rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        rows.append(
            {"cell": cell, "type": kind, "metric": name, "labels": rendered, **fields}
        )

    for key, value in snapshot.get("counters", {}).items():
        add("counter", key, value=value)
    for key, summary in snapshot.get("gauges", {}).items():
        add(
            "gauge",
            key,
            value=summary.get("value"),
            min=summary.get("min"),
            max=summary.get("max"),
            count=summary.get("writes"),
        )
    for key, summary in snapshot.get("histograms", {}).items():
        add(
            "histogram",
            key,
            **{field: summary.get(field) for field in _HISTOGRAM_FIELDS},
        )
    return rows


# -- result stores -------------------------------------------------------------


def telemetry_cells(
    records: Iterable[Dict[str, Any]]
) -> List[Tuple[str, Dict[str, Any]]]:
    """``(label, snapshot)`` for every result-store record carrying telemetry.

    The label is the one the store wrote (``spec.label()``, params included),
    else the spec hash.  Structurally empty snapshots — instrumented cells of
    model-only families that never build a simulator — are skipped: they hold
    no row.
    """
    cells: List[Tuple[str, Dict[str, Any]]] = []
    for record in records:
        snapshot = record.get("telemetry")
        if snapshot and any(
            snapshot.get(section)
            for section in ("counters", "gauges", "histograms")
        ):
            cells.append((record.get("label") or record.get("hash", "?"), snapshot))
    return cells


def report_rows(
    cells: Iterable[Tuple[str, Dict[str, Any]]], metric_filter: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Every cell's :func:`snapshot_rows` whose ``metric`` contains
    ``metric_filter``: what ``report`` prints and ``report --csv`` writes."""
    return [
        row
        for label, snapshot in cells
        for row in snapshot_rows(snapshot, cell=label)
        if metric_filter is None or metric_filter in row["metric"]
    ]


def render_report(
    cells: Sequence[Tuple[str, Dict[str, Any]]], metric_filter: Optional[str] = None
) -> str:
    """:func:`report_rows` as text: one aligned table per metric type, rows
    ordered by metric so the cells of a sweep sit side by side."""
    from repro.analysis.metrics import format_table

    if not cells:
        return (
            "no telemetry metrics in the store — run a simulation family with "
            "--instrument metrics (or ScenarioSpec(instrument=\"metrics\")) to "
            "record snapshots"
        )
    rows = sorted(
        report_rows(cells, metric_filter),
        key=lambda row: (row["metric"], row["labels"], row["cell"]),
    )
    tables: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        tables.setdefault(row["type"], []).append(
            {
                key: round(value, 4) if isinstance(value, float) else value
                for key, value in row.items()
                if key != "type"
            }
        )
    sections = [f"telemetry report — {len(cells)} instrumented cells"]
    for kind, table in sorted(tables.items()):
        sections.append(f"\n== {kind} ==\n{format_table(table)}")
    return "\n".join(sections)


def dominant_phase(snapshots: Iterable[Dict[str, Any]]) -> Optional[str]:
    """The phase whose :data:`PHASE_PREFIX` samples have the largest mean,
    pooled over ``snapshots`` (one per replica of a cluster, or one run's);
    None when no phase was observed."""
    totals: Dict[str, List[float]] = {}
    for snapshot in snapshots:
        for key, summary in snapshot.get("histograms", {}).items():
            if key.startswith(PHASE_PREFIX) and summary.get("count"):
                total = totals.setdefault(key[len(PHASE_PREFIX) : -len("_s")], [0.0, 0])
                total[0] += summary["mean"] * summary["count"]
                total[1] += summary["count"]
    if not totals:
        return None
    return max(totals, key=lambda phase: totals[phase][0] / totals[phase][1])


# -- sampled time series -------------------------------------------------------


def series_rows(
    cells: Iterable[Tuple[str, Dict[str, Any]]]
) -> Iterator[Dict[str, Any]]:
    """One ``{cell, series, t, value}`` row per sampled point of every
    ``(label, metrics snapshot)`` cell."""
    for cell, snapshot in cells:
        for name, series in snapshot.get("series", {}).items():
            for sim_time, value in series["points"]:
                yield {"cell": cell, "series": name, "t": sim_time, "value": value}


# -- traces --------------------------------------------------------------------


def chrome_trace(
    spans: Sequence[Dict[str, Any]],
    events: Sequence[Dict[str, Any]] = (),
    clock: str = "simulated seconds, scaled to us",
) -> Dict[str, Any]:
    """A Chrome trace object from span records and structured point events.

    ``spans`` are :meth:`~repro.obs.trace.Span.to_dict` records — straight
    off one tracer, or merged from several cluster workers with
    ``start``/``end`` already mapped onto the shared cluster clock.
    """
    trace_events: List[Dict[str, Any]] = []
    for span in spans:
        args: Dict[str, Any] = {"trace": span["trace"], "span": span["span"]}
        if span.get("parent") is not None:
            args["parent"] = span["parent"]
        if span.get("attrs"):
            args.update(span["attrs"])
        start = span["start"]
        end = span["end"] if span.get("end") is not None else start
        trace_events.append(
            {
                "name": span["name"],
                "ph": "X",
                "pid": _pid(span.get("replica")),
                "tid": span["trace"],
                "ts": start * _US,
                "dur": (end - start) * _US,
                "args": args,
            }
        )
    for event in events:
        trace_events.append(
            {
                "name": event["name"],
                "ph": "i",
                "s": "t",
                "pid": _pid(event.get("replica")),
                "tid": event["trace"] if event.get("trace") is not None else 0,
                "ts": event["t"] * _US,
                "args": dict(event.get("attrs") or {}),
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "traces": len({span["trace"] for span in spans}),
            "clock": clock,
        },
    }


def _pid(replica: Any) -> int:
    """Replica id as a Chrome process id (non-int replicas hash stably)."""
    if isinstance(replica, int):
        return replica
    return abs(hash(str(replica))) % 1_000_000 if replica is not None else 0


def span_tree(spans: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Span records nested under their parents: a list of per-trace roots."""
    nodes = {span["span"]: {**span, "children": []} for span in spans}
    roots: List[Dict[str, Any]] = []
    for node in nodes.values():
        parent = nodes.get(node["parent"]) if node["parent"] is not None else None
        (parent["children"] if parent is not None else roots).append(node)
    return roots
