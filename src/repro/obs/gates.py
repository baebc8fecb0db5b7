"""Declarative SLO gates over streamed observability series.

A scenario family declares its service-level objectives right next to its
``@scenario`` registration::

    @scenario("fig4-recovery", ..., slo=SLO(min_events_per_sec=2_000,
                                            max_p99_commit_s=120.0,
                                            max_host_seconds=120.0))

Gate evaluation reads the result store: host seconds come from the
``wall_clock_s`` every record carries; event rate and commit-latency p99 come
from the live snapshot persisted next to ``instrument="live"`` records.  Cells
recorded without it are reported as *skipped* for rate/latency objectives — never
silently passed — so a gate run states exactly what it did and did not check.

``python -m repro.scenarios report --gate`` renders the checks and exits
non-zero on any breach, which is what lets CI fail the build when a family
regresses below its floor.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: metric name -> (record extractor description, comparison direction)
#: ``min`` metrics breach when observed < limit, ``max`` when observed > limit.
_METRIC_DIRECTION = {
    "min_events_per_sec": "min",
    "max_p99_commit_s": "max",
    "max_host_seconds": "max",
}


@dataclasses.dataclass(frozen=True)
class SLO:
    """Per-family objectives; ``None`` fields are simply not checked."""

    min_events_per_sec: Optional[float] = None
    max_p99_commit_s: Optional[float] = None
    max_host_seconds: Optional[float] = None

    def checks(self) -> List[Tuple[str, float, str]]:
        """Declared objectives as ``(metric, limit, direction)`` triples."""
        out = []
        for metric, direction in _METRIC_DIRECTION.items():
            limit = getattr(self, metric)
            if limit is not None:
                out.append((metric, float(limit), direction))
        return out

    def merged(self, overrides: Mapping[str, float]) -> "SLO":
        """A copy with ``overrides`` (metric name -> limit) applied."""
        unknown = set(overrides) - set(_METRIC_DIRECTION)
        if unknown:
            raise ValueError(
                f"unknown SLO metric(s) {sorted(unknown)}; "
                f"known: {sorted(_METRIC_DIRECTION)}"
            )
        return dataclasses.replace(self, **dict(overrides))


@dataclasses.dataclass
class GateCheck:
    """One objective evaluated against one recorded cell."""

    family: str
    cell: str
    metric: str
    limit: float
    observed: Optional[float]
    status: str  # "pass" | "breach" | "skipped"
    reason: str = ""


@dataclasses.dataclass
class GateReport:
    """All checks of one gate run, plus the breach verdict."""

    checks: List[GateCheck]

    @property
    def breaches(self) -> List[GateCheck]:
        return [check for check in self.checks if check.status == "breach"]

    @property
    def skipped(self) -> List[GateCheck]:
        return [check for check in self.checks if check.status == "skipped"]

    @property
    def ok(self) -> bool:
        return not self.breaches


def _observed_value(record: Dict[str, Any], metric: str) -> Tuple[Optional[float], str]:
    """Extract the observed value for ``metric``, or (None, why-skipped)."""
    if metric == "max_host_seconds":
        return float(record.get("wall_clock_s", 0.0)), ""
    obs = record.get("obs")
    if not obs:
        return None, "no obs snapshot recorded (re-run with --instrument live)"
    if metric == "min_events_per_sec":
        totals = obs.get("totals", {})
        rate = totals.get("events_per_sec")
        if rate is None:
            return None, "obs snapshot has no event-rate totals"
        return float(rate), ""
    if metric == "max_p99_commit_s":
        quantiles = obs.get("quantiles", {})
        commit = quantiles.get("commit_latency_s")
        if not commit or not commit.get("count"):
            return None, "no commit-latency observations in obs snapshot"
        return float(commit["p99"]), ""
    raise ValueError(f"unknown SLO metric {metric!r}")


def evaluate_record(family: str, record: Dict[str, Any], slo: SLO) -> List[GateCheck]:
    """Evaluate every declared objective of ``slo`` against one store record."""
    cell = record.get("label") or record.get("hash", "?")
    checks: List[GateCheck] = []
    for metric, limit, direction in slo.checks():
        observed, skip_reason = _observed_value(record, metric)
        if observed is None:
            checks.append(
                GateCheck(family, cell, metric, limit, None, "skipped", skip_reason)
            )
            continue
        breached = observed < limit if direction == "min" else observed > limit
        checks.append(
            GateCheck(
                family,
                cell,
                metric,
                limit,
                observed,
                "breach" if breached else "pass",
            )
        )
    return checks


def evaluate_records(
    families: Mapping[str, SLO],
    records: Iterable[Dict[str, Any]],
) -> GateReport:
    """Evaluate each record against its family's SLO (records carry a
    ``family`` field; families without a declared SLO are not checked)."""
    checks: List[GateCheck] = []
    for record in records:
        family = record.get("family", "")
        slo = families.get(family)
        if slo is None:
            continue
        checks.extend(evaluate_record(family, record, slo))
    return GateReport(checks)


def parse_slo_overrides(items: Iterable[str]) -> Dict[str, Dict[str, float]]:
    """Parse repeated ``FAMILY:METRIC=VALUE`` CLI overrides.

    Returns family -> {metric: limit}.  Used to tighten (or inject) an
    objective from the command line, e.g. to prove in CI that a violated
    gate really breaks the build::

        report --gate --slo fig4-recovery:min_events_per_sec=1e12
    """
    overrides: Dict[str, Dict[str, float]] = {}
    for item in items:
        family, sep, rest = item.partition(":")
        metric, eq, value = rest.partition("=")
        if not sep or not eq or not family or not metric:
            raise ValueError(
                f"malformed SLO override {item!r}; expected FAMILY:METRIC=VALUE"
            )
        if metric not in _METRIC_DIRECTION:
            raise ValueError(
                f"unknown SLO metric {metric!r}; known: {sorted(_METRIC_DIRECTION)}"
            )
        overrides.setdefault(family, {})[metric] = float(value)
    return overrides


def render_gate_report(report: GateReport) -> str:
    """Human-readable gate table plus the one-line verdict."""
    if not report.checks:
        return "SLO gate: no checks ran (no recorded cells match a family with an SLO)"
    lines = []
    header = (
        f"{'status':<8} {'family':<18} {'cell':<36} "
        f"{'metric':<22} {'limit':>12} {'observed':>12}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for check in report.checks:
        observed = f"{check.observed:.4g}" if check.observed is not None else "-"
        lines.append(
            f"{check.status:<8} {check.family:<18} {check.cell[:36]:<36} "
            f"{check.metric:<22} {check.limit:>12.4g} {observed:>12}"
        )
        if check.reason:
            lines.append(f"{'':8} ^ {check.reason}")
    verdict = (
        f"SLO gate: {len(report.breaches)} breach(es), "
        f"{len(report.skipped)} skipped, "
        f"{len(report.checks) - len(report.breaches) - len(report.skipped)} passed"
    )
    lines.append(verdict)
    return "\n".join(lines)
