"""Figure 4: disagreeing decisions per committee size under both coalition attacks.

Top plot: the binary consensus attack; bottom plot: the reliable broadcast
attack.  Each cell runs the full ZLB stack with ``d = ceil(5n/9) - 1`` and
``q = 0``, injecting the given delay distribution between the partitions of
honest replicas, and counts the disagreeing proposals observed by honest
replicas before the membership change recovers the system.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.config import FaultConfig
from repro.experiments.common import attack_sizes, sweep_seeds
from repro.zlb.system import AttackSpec, SystemResult, ZLBSystem

#: The delay distributions of Figure 4.
FIG4_DELAYS: Sequence[str] = ("200ms", "500ms", "1000ms", "gamma", "aws")


def run_attack_cell(
    n: int,
    attack_kind: str,
    cross_partition_delay: str,
    seed: int = 1,
    instances: int = 2,
    max_time: float = 300.0,
    max_events: Optional[int] = None,
    benign: int = 0,
    deceitful: Optional[int] = None,
    delay: str = "aws",
    workload_transactions: Optional[int] = None,
    batch_size: int = 10,
) -> SystemResult:
    """One Figure 4 cell: one run of ZLB under one attack and one delay.

    ``delay`` is the base model between non-partitioned links (the paper uses
    the AWS-like distribution); ``workload_transactions`` defaults to the
    paper's 12 transfers per replica.
    """
    if deceitful is None:
        fault_config = FaultConfig.paper_attack(n, benign=benign)
    else:
        fault_config = FaultConfig(
            n=n, deceitful=deceitful, benign=benign, enforce_model=False
        )
    system = ZLBSystem.create(
        fault_config,
        seed=seed,
        delay=delay,
        attack=AttackSpec(kind=attack_kind, cross_partition_delay=cross_partition_delay),
        workload_transactions=(
            12 * n if workload_transactions is None else workload_transactions
        ),
        batch_size=batch_size,
        max_time=max_time,
        max_events=max_events,
    )
    return system.run_instances(instances, until=max_time)


def fig4_specs(
    attack_kind: str = "binary",
    sizes: Optional[List[int]] = None,
    delays: Optional[Sequence[str]] = None,
    instances: int = 2,
    max_time: float = 300.0,
    seeds: Optional[Sequence[int]] = None,
):
    """Expand one Figure 4 panel into scenario specs (delay-major order).

    Each cell carries the paper's workload (12 transfers per replica)
    explicitly, so the spec hash records exactly what the cell runs.
    """
    from repro.scenarios.registry import expand_grid

    return [
        spec.with_overrides(workload_transactions=12 * spec.n)
        for spec in expand_grid(
            "fig4",
            {
                "cross_partition_delay": tuple(delays or FIG4_DELAYS),
                "n": tuple(sizes or attack_sizes()),
                "seed": tuple(seeds or sweep_seeds()),
            },
            base={"attack": attack_kind, "instances": instances, "max_time": max_time},
        )
    ]


def run_fig4(
    attack_kind: str = "binary",
    sizes: Optional[List[int]] = None,
    delays: Optional[Sequence[str]] = None,
    instances: int = 2,
    max_time: float = 300.0,
) -> List[Dict[str, object]]:
    """One Figure 4 panel: rows of (delay, n) -> disagreements.

    The sweep is declared through the scenario registry (family ``fig4``) and
    executed one cell per (delay, n, seed); this wrapper aggregates the cells
    back into the figure's (delay, n) rows.  ``recovered`` is True when *any*
    seed's run recovered (the pre-registry version reported whichever seed
    happened to run last).
    """
    from repro.scenarios.runner import run_specs

    sizes = list(sizes or attack_sizes())
    delays = list(delays or FIG4_DELAYS)
    cells = run_specs(
        fig4_specs(attack_kind, sizes, delays, instances=instances, max_time=max_time)
    )
    rows: List[Dict[str, object]] = []
    for delay in delays:
        for n in sizes:
            group = [c for c in cells if c["delay"] == delay and c["n"] == n]
            disagreements = [c["disagreements"] for c in group]
            rows.append(
                {
                    "attack": attack_kind,
                    "delay": delay,
                    "n": n,
                    "disagreements": max(disagreements),
                    "mean_disagreements": sum(disagreements) / len(disagreements),
                    "recovered": any(c["recovered"] for c in group),
                }
            )
    return rows
