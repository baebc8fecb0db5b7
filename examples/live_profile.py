#!/usr/bin/env python3
"""Watch a small Figure 4 sweep live and print each cell's top-10 CPU report.

The run drives two attack cells through the scenario runner with the live
observability plane on:

* a :class:`~repro.obs.watch.SweepWatcher` renders an in-place progress
  table (percent of simulated time, events/sec, ETA) fed by the sampler's
  ticks — the same machinery behind
  ``python -m repro.scenarios run fig4 --instrument live --watch``;
* each cell's :class:`~repro.obs.profiler.HostProfiler` attributes the host
  CPU to named buckets (``dispatch:<protocol>``, ``timer``, ``sim.kernel``,
  ``crypto.verify``, ``ledger.append`` / ``ledger.merge``), printed as a
  top-10 table at the end.

Because instrumentation is strictly observational, the cells' outcomes are byte-identical
to an unwatched run.

Run with::

    python examples/live_profile.py
"""

from repro.obs.profiler import render_report
from repro.obs.watch import SweepWatcher
from repro.scenarios import registry
from repro.scenarios.runner import ScenarioRunner


def main() -> None:
    # Two small attack cells: one per coalition attack kind.
    specs = [
        spec.with_overrides(instrument="live")
        for spec in registry.expand("fig4", "small")
        if spec.n == 9 and (spec.cross_partition_delay or "") == "1000ms"
    ]
    print(f"running {len(specs)} watched fig4 cells (n=9, 1000ms cross delay)")

    watcher = SweepWatcher(total_cells=len(specs))
    report = ScenarioRunner(watch=watcher).run(specs)

    for outcome in report.outcomes:
        row = outcome.row
        print(
            f"\n{outcome.spec.label()}: disagreements={row.get('disagreements')} "
            f"committed={row.get('committed_transactions')} "
            f"wall={outcome.wall_clock_s:.1f}s"
        )
        profile = dict(outcome.obs["profile"])
        buckets = profile["buckets"]
        if len(buckets) > 10:
            profile["truncated_buckets"] = (
                profile.get("truncated_buckets", 0) + len(buckets) - 10
            )
            profile["buckets"] = buckets[:10]
        print(render_report(profile, title="top-10 host-CPU buckets"))

        totals = outcome.obs["totals"]
        print(
            f"sampler: {totals['ticks']} ticks, "
            f"{totals['events_processed']} events, "
            f"{totals['events_per_sec']:.0f} events/s overall"
        )


if __name__ == "__main__":
    main()
