"""``python3 -m zlbbench compare A.json B.json``: did B get worse than A?

Both files are ``results.json`` as ``--out`` writes them, ideally with several
runs per workload (``--repeat``).  One row per workload and end-to-end
metric gives both medians with their quartiles, the change of B against A
(positive is worse), the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than the distance between the
  quartiles of A's own runs;
* ``unresolved`` — neither, but the runs of A or B spread wider than the
  bound, so "no change" cannot be told from a change the bound forbids;
* ``unchanged`` — none of the above.

Under every row that is not ``unchanged`` the per-layer metrics that moved
most between the traced runs of the two files are listed.  The exit code is
non-zero when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from zlbbench import manifest, stats

MOVERS_SHOWN = 3


def _values(results: Dict[str, Any], trace: bool) -> Dict[Tuple[str, str], List[float]]:
    grouped: Dict[Tuple[str, str], List[float]] = {}
    for run in results["runs"]:
        if run["trace"] == trace:
            for name, metric in run["metrics"].items():
                grouped.setdefault((run["workload"], name), []).append(metric["value"])
    return grouped


def _worsening(before: float, after: float, better: str) -> float:
    """Change of ``after`` against ``before`` as a share, positive when worse."""
    if not before:
        return 0.0
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float]:
    a_q1, a_median, a_q3 = stats.quartiles(a)
    worse = _worsening(a_median, stats.quartiles(b)[1], better)
    if worse > bound:
        return "regressed", worse
    if worse < 0 and -worse > (a_q3 - a_q1) / abs(a_median):
        return "better", worse
    if max(stats.spread(a), stats.spread(b)) > bound:
        return "unresolved", worse
    return "unchanged", worse


def compare(a: Dict[str, Any], b: Dict[str, Any], declared: Dict[str, Any]) -> Tuple[List[str], bool]:
    """The report lines and whether any row regressed."""
    lines = [
        f"A: commit {a.get('commit')}  host {a.get('host')}",
        f"B: commit {b.get('commit')}  host {b.get('host')}",
        f"{'workload':18s} {'metric':18s} {'A median [q1, q3]':>34s} "
        f"{'B median [q1, q3]':>34s} {'worse by':>9s} {'bound':>6s}  verdict",
    ]
    bare_a, bare_b = _values(a, False), _values(b, False)
    traced_a, traced_b = _values(a, True), _values(b, True)
    directions = {metric["name"]: metric["better"] for metric in declared["per_layer"]}
    regressed = False
    for workload in manifest.workload_names(declared):
        for metric in declared["end_to_end"]:
            key = (workload, metric["name"])
            if key not in bare_a or key not in bare_b:
                continue
            outcome, worse = verdict(bare_a[key], bare_b[key], metric["better"], metric["bound"])
            regressed = regressed or outcome == "regressed"
            lines.append(
                f"{workload:18s} {metric['name']:18s} {_cell(bare_a[key]):>34s} "
                f"{_cell(bare_b[key]):>34s} {100 * worse:>+8.1f}% {100 * metric['bound']:>5.0f}%  {outcome}"
            )
            if outcome != "unchanged":
                lines.extend(_movers(workload, traced_a, traced_b, directions))
    return lines, regressed


def _cell(values: List[float]) -> str:
    q1, median, q3 = stats.quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def _movers(workload, traced_a, traced_b, directions) -> List[str]:
    moved = []
    for (name_workload, name), before in traced_a.items():
        after = traced_b.get((name_workload, name))
        if name_workload != workload or after is None:
            continue
        before_median, after_median = stats.quartiles(before)[1], stats.quartiles(after)[1]
        if before_median:
            change = (after_median - before_median) / abs(before_median)
            moved.append((abs(change), name, before_median, after_median, change))
    moved.sort(reverse=True)
    return [
        f"{'':18s}   moved: {name} {before:.5g} -> {after:.5g} ({100 * change:+.1f}%, "
        f"{directions.get(name, '?')} is better)"
        for _, name, before, after, change in moved[:MOVERS_SHOWN]
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m zlbbench compare", description=__doc__)
    parser.add_argument("a", help="results.json of the reference")
    parser.add_argument("b", help="results.json of the candidate")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        b = json.load(handle)
    lines, regressed = compare(a, b, manifest.load())
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
