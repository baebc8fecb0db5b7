#!/usr/bin/env python3
"""Trace one Figure 4 attack cell and print its commit critical path.

The run replays the paper's binary consensus attack (n = 9, 1000 ms
cross-partition delay, seed 1) with causal tracing on: every message carries
a trace context, every protocol layer (mempool admission, RBC echo/ready,
binary rounds, commit/merge) records spans and point events.  The online
invariant monitors (agreement, validity, supply conservation, zero-loss
accounting) check the run as it happens, as they check every run; tracing
only adds the flight recorder they dump on a violation.

Afterwards the critical-path analysis says which phase dominated
time-to-commit, per percentile — under the attack the answer is the mempool
wait: transactions stranded behind the partition sit in the mempool until
the membership change completes, while the consensus phases themselves stay
sub-second.

Run with::

    python examples/trace_critical_path.py
"""

from repro import obs
from repro.obs import TraceRuntime, critical_path, render_critical_path
from repro.scenarios import ScenarioSpec, run_system


def main() -> None:
    runtime = TraceRuntime.enabled()
    with obs.activate(obs.Probe(trace=runtime)):
        result = run_system(
            ScenarioSpec(
                family="fig4", n=9, attack="binary", cross_partition_delay="1000ms"
            )
        )

    print(
        f"run: n={result.n} disagreements={result.disagreements} "
        f"committed={result.committed_transactions} recovered={result.recovered}"
    )

    # The run ends with the zero-loss accounting: whatever the coalition
    # realised must be covered by what was seized from it.
    status = "VIOLATED" if result.violations else "all green"
    print(f"invariant monitors: {status}")
    for violation in result.violations:
        print(f"  {violation}")

    tracer = runtime.tracer
    print(
        f"traced: {tracer.trace_count()} traces, {len(tracer.spans)} spans, "
        f"{len(tracer.events)} events"
    )
    print()
    print(render_critical_path(critical_path(tracer)))


if __name__ == "__main__":
    main()
