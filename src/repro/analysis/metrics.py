"""Metrics helpers shared by experiments and benchmarks."""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence


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


@dataclasses.dataclass
class RunMetrics:
    """Aggregated metrics of one simulated run (one configuration, one seed)."""

    n: int
    deceitful: int = 0
    benign: int = 0
    simulated_time: float = 0.0
    messages_sent: int = 0
    messages_delivered: int = 0
    decided_instances: int = 0
    committed_transactions: int = 0
    disagreements: int = 0
    disagreement_instances: int = 0
    detect_time: Optional[float] = None
    exclusion_time: Optional[float] = None
    inclusion_time: Optional[float] = None
    excluded_replicas: int = 0
    included_replicas: int = 0
    deposit_shortfall: int = 0
    #: Net value the coalition actually realised through double spends (the
    #: deposit refunds honest replicas paid for genuinely double-spent inputs,
    #: net of later recoveries) — *not* a bound, the measured gain.
    realized_gain: int = 0
    #: Value seized back from the coalition: slashed deposit accounts plus
    #: confiscated outputs to punished addresses.
    seized_deposit: int = 0

    @property
    def attacker_net_gain(self) -> int:
        """The coalition's profit after recovery: realised gain minus seizures.

        The paper's zero-loss claim is exactly that this is ≤ 0 in
        expectation for a correctly-sized deposit policy.
        """
        return self.realized_gain - self.seized_deposit

    @property
    def zero_loss(self) -> bool:
        """True when the seized deposits covered everything the coalition
        actually realised (and the shared deposit never went negative)."""
        return self.attacker_net_gain <= 0 and self.deposit_shortfall == 0

    @property
    def throughput_tx_per_sec(self) -> float:
        """Committed transactions divided by simulated time."""
        if self.simulated_time <= 0:
            return 0.0
        return self.committed_transactions / self.simulated_time

    def to_row(self) -> Dict[str, float]:
        """Flat dictionary used when printing experiment tables."""
        return {
            "n": self.n,
            "deceitful": self.deceitful,
            "benign": self.benign,
            "simulated_time_s": round(self.simulated_time, 3),
            "decided_instances": self.decided_instances,
            "committed_transactions": self.committed_transactions,
            "throughput_tx_s": round(self.throughput_tx_per_sec, 1),
            "disagreements": self.disagreements,
            "disagreement_instances": self.disagreement_instances,
            "detect_time_s": round(self.detect_time, 3) if self.detect_time else None,
            "exclusion_time_s": (
                round(self.exclusion_time, 3) if self.exclusion_time else None
            ),
            "inclusion_time_s": (
                round(self.inclusion_time, 3) if self.inclusion_time else None
            ),
            "excluded_replicas": self.excluded_replicas,
            "included_replicas": self.included_replicas,
            "deposit_shortfall": self.deposit_shortfall,
            "realized_gain": self.realized_gain,
            "seized_deposit": self.seized_deposit,
            "attacker_net_gain": self.attacker_net_gain,
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
