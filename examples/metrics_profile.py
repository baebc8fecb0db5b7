#!/usr/bin/env python3
"""Metrics walkthrough: profile a coalition attack end to end.

Demonstrates the instrumentation subsystem:

1. activate a :class:`TelemetryRegistry` and run one Figure-4 style
   coalition-attack cell — the whole stack (simulator, reliable broadcast,
   binary/set consensus, membership change, blockchain managers) records
   into the active registry;
2. read the headline numbers straight off the snapshot: per-protocol message
   and byte counts, per-phase latency percentiles, where time-to-commit went
   (the ``zlb.phase.*_s`` histograms: mempool wait, reliable broadcast,
   binary consensus, commit — under the attack the commit phase dominates,
   since replicas cut off by the partition commit only after the membership
   change) and the detection → exclusion → merge recovery timeline;
3. export the snapshot as JSON and flattened CSV — the same artefacts
   ``python -m repro.scenarios sweep --instrument metrics`` stores per cell and
   ``python -m repro.scenarios report`` renders.

Run with::

    python examples/metrics_profile.py
"""

import tempfile
from pathlib import Path

from repro import obs
from repro.obs.export import (
    PHASE_PREFIX,
    dominant_phase,
    render_report,
    snapshot_rows,
    write_csv,
    write_json,
)
from repro.scenarios import ScenarioSpec, run_system


def main() -> None:
    registry = obs.TelemetryRegistry()
    print("running one instrumented coalition-attack cell (n=9, binary attack)...")
    with obs.activate(obs.Probe(metrics=registry)):
        result = run_system(
            ScenarioSpec(
                family="fig4", n=9, attack="binary", cross_partition_delay="1000ms"
            )
        )
    print(
        f"recovered={result.recovered}  excluded={result.excluded}  "
        f"committed={result.committed_transactions}"
    )

    snapshot = registry.snapshot()
    print()
    print(render_report([("fig4 n=9", snapshot)], metric_filter="rbc."))

    # Where time-to-commit went, phase by phase.
    print()
    print(render_report([("fig4 n=9", snapshot)], metric_filter=PHASE_PREFIX))
    print(f"dominant phase: {dominant_phase([snapshot])}")

    # A recovery gauge's min is the first time that step happened anywhere.
    recovery = {
        key[len("zlb.recovery.") : -len("_s")]: gauge["min"]
        for key, gauge in snapshot["gauges"].items()
        if key.startswith("zlb.recovery.")
    }
    print("\nrecovery timeline (simulated seconds):")
    for step, at in sorted(recovery.items(), key=lambda item: item[1]):
        print(f"  {at:8.3f}s  {step}")

    out_dir = Path(tempfile.mkdtemp())
    json_path = write_json(snapshot, out_dir / "profile.json")
    csv_path = write_csv(
        snapshot_rows(snapshot, cell="fig4 n=9"), out_dir / "profile.csv"
    )
    print(f"\nexported {json_path} and {csv_path}")


if __name__ == "__main__":
    main()
