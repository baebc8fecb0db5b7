"""Metrics helpers shared by experiments and benchmarks."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence


def percentiles(
    samples: Sequence[float], points: Sequence[float] = (50.0, 95.0, 99.0)
) -> Dict[str, float]:
    """Percentiles of ``samples`` with linear interpolation between ranks.

    Returns ``{"p50": ..., "p95": ..., ...}`` keyed by the requested points
    (trailing ``.0`` stripped, so ``99.9`` becomes ``"p99.9"``).  The single
    quantile implementation shared by :func:`summarize_latencies` and the
    telemetry :class:`~repro.obs.metrics.Histogram`.
    """
    ordered = sorted(float(v) for v in samples)
    result: Dict[str, float] = {}
    for point in points:
        key = f"p{point:g}"
        if not ordered:
            result[key] = 0.0
            continue
        rank = (point / 100.0) * (len(ordered) - 1)
        lower = math.floor(rank)
        upper = math.ceil(rank)
        if lower == upper:
            result[key] = ordered[int(rank)]
        else:
            fraction = rank - lower
            result[key] = ordered[lower] * (1 - fraction) + ordered[upper] * fraction
    return result


def summarize_latencies(samples: Sequence[float]) -> Dict[str, float]:
    """Mean, std, a 95% confidence half-interval and p50/p95/p99.

    The paper reports 95% confidence intervals over 3–5 runs; the same summary
    is used for every timing series the reproduction produces.
    """
    values = [float(v) for v in samples]
    if not values:
        return {"count": 0, "mean": 0.0, "std": 0.0, "ci95": 0.0, **percentiles(())}
    mean = sum(values) / len(values)
    if len(values) > 1:
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    else:
        variance = 0.0
    std = math.sqrt(variance)
    ci95 = 1.96 * std / math.sqrt(len(values)) if len(values) > 1 else 0.0
    return {
        "count": len(values),
        "mean": mean,
        "std": std,
        "ci95": ci95,
        **percentiles(values),
    }


def format_table(rows: Iterable[Dict[str, object]]) -> str:
    """Render a list of dict rows as an aligned text table (for harness output)."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    columns: List[str] = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), max(len(str(row.get(column))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column)).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
