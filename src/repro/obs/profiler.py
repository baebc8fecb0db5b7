"""Deterministic host-CPU profiler with per-bucket self/cumulative time.

The profiler is a tiny explicit-instrumentation stack, not a sampling
profiler: instrumented sites call :meth:`HostProfiler.enter` /
:meth:`HostProfiler.exit` (or the :meth:`HostProfiler.section` context
manager) around a *bucket* — a topic-prefix such as ``dispatch:sbc:rbc``, or
a named phase such as ``sim.kernel``, ``timer``, ``crypto.verify`` or
``ledger.merge``.  Each bucket accumulates

* **cumulative** nanoseconds — wall time with the bucket anywhere on the
  stack, children included;
* **self** nanoseconds — cumulative minus time attributed to nested
  sections, so the per-bucket self times of one run partition its measured
  wall time exactly;
* a **call count**.

Because the measured quantity is ``time.perf_counter_ns`` around explicit
brackets, the instrumentation consumes no randomness, installs no signal
handlers and never interferes with simulation order: fixed-seed runs are
byte-identical with profiling on or off.

The simulator wraps its whole event loop in a ``sim.kernel`` section, so the
kernel's *self* time is exactly the scheduling overhead (heap ops, delivery
bookkeeping) left over after dispatch/timer/ledger children claimed theirs —
which is what lets a report attribute ~all of a run's host CPU to named
buckets instead of an anonymous remainder.
"""

from __future__ import annotations

import contextlib
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional


class HostProfiler:
    """Accumulates self/cumulative ``perf_counter_ns`` per named bucket."""

    __slots__ = ("_self_ns", "_cum_ns", "_calls", "_stack", "_root_ns")

    def __init__(self) -> None:
        self._self_ns: Dict[str, int] = {}
        self._cum_ns: Dict[str, int] = {}
        self._calls: Dict[str, int] = {}
        # Stack frames are [bucket, start_ns, child_ns] lists; child_ns is
        # mutated in place by exiting children.
        self._stack: List[List[Any]] = []
        # Wall time spent inside root-level sections (empty stack on entry):
        # the profiler's measured share of the process, used as the
        # attribution numerator in reports.
        self._root_ns = 0

    # -- hot-path bracket ------------------------------------------------------

    def enter(self, bucket: str) -> None:
        self._stack.append([bucket, perf_counter_ns(), 0])

    def exit(self) -> None:
        bucket, start_ns, child_ns = self._stack.pop()
        elapsed = perf_counter_ns() - start_ns
        cum = self._cum_ns
        if bucket in cum:
            cum[bucket] += elapsed
            self._self_ns[bucket] += elapsed - child_ns
            self._calls[bucket] += 1
        else:
            cum[bucket] = elapsed
            self._self_ns[bucket] = elapsed - child_ns
            self._calls[bucket] = 1
        if self._stack:
            self._stack[-1][2] += elapsed
        else:
            self._root_ns += elapsed

    @contextlib.contextmanager
    def section(self, bucket: str) -> Iterator[None]:
        """Bracket the enclosed block as ``bucket`` (exception-safe)."""
        self.enter(bucket)
        try:
            yield
        finally:
            self.exit()

    # -- reporting -------------------------------------------------------------

    def report(
        self, top: Optional[int] = None, wall_ns: Optional[int] = None
    ) -> Dict[str, Any]:
        """Top-N attribution report, sorted by self time descending.

        ``wall_ns`` — when given (e.g. the enclosing cell's wall time) — sets
        the denominator of ``attributed_pct``: the share of that wall time
        the profiler saw inside root-level sections.  Without it, the
        measured time itself is the denominator and the share is 1.0 by
        construction.
        """
        buckets = []
        for bucket in sorted(
            self._self_ns, key=lambda name: self._self_ns[name], reverse=True
        ):
            buckets.append(
                {
                    "bucket": bucket,
                    "calls": self._calls[bucket],
                    "self_ms": self._self_ns[bucket] / 1e6,
                    "cum_ms": self._cum_ns[bucket] / 1e6,
                }
            )
        total_self_ns = sum(self._self_ns.values())
        if total_self_ns > 0:
            for row in buckets:
                row["self_pct"] = row["self_ms"] * 1e6 / total_self_ns
        denominator = wall_ns if wall_ns else self._root_ns
        attributed = self._root_ns / denominator if denominator else 0.0
        truncated = 0
        if top is not None and len(buckets) > top:
            truncated = len(buckets) - top
            buckets = buckets[:top]
        return {
            "buckets": buckets,
            "truncated_buckets": truncated,
            "total_self_ms": total_self_ns / 1e6,
            "measured_ms": self._root_ns / 1e6,
            "wall_ms": (wall_ns / 1e6) if wall_ns else self._root_ns / 1e6,
            "attributed_pct": attributed,
        }


def render_report(report: Dict[str, Any], title: str = "host-CPU profile") -> str:
    """Human-readable table of a :meth:`HostProfiler.report` dict."""
    lines = [
        f"{title}: {report['measured_ms']:.1f} ms measured / "
        f"{report['wall_ms']:.1f} ms wall "
        f"({report['attributed_pct'] * 100.0:.1f}% attributed)"
    ]
    header = f"{'bucket':<28} {'calls':>9} {'self ms':>10} {'cum ms':>10} {'self %':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["buckets"]:
        lines.append(
            f"{row['bucket']:<28} {row['calls']:>9} "
            f"{row['self_ms']:>10.2f} {row['cum_ms']:>10.2f} "
            f"{row.get('self_pct', 0.0) * 100.0:>6.1f}%"
        )
    if report.get("truncated_buckets"):
        lines.append(f"... {report['truncated_buckets']} more bucket(s) truncated")
    return "\n".join(lines)
