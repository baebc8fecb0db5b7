"""Order statistics and the host fingerprint shared by every result."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from typing import Dict, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles (a run too short for a second
    sub-window or repetition still reports a number).
    """
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, statistics.median(values), q3)


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``share`` in 0..1)."""
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median with quartiles and the sample count, for result files."""
    q1, median, q3 = quartiles(values)
    return {"q1": q1, "median": median, "q3": q3, "samples": len(values)}


def peak_rss_mb() -> float:
    """High-water mark of this process's resident set, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
    }
