"""The ``scale`` scenario family: committees of hundreds of replicas.

The paper's sweeps stop at ``n = 100``; this family exists to exercise (and
keep exercising, through its claims on ``sweep scale --scale full``) the
kernel optimisations that make three-digit committees practical in a single
Python process: the verified-signature and certificate-validity caches,
memoised vote payloads, batched delay sampling and coalesced same-broadcast
delivery.

Two kinds of cells share the family, told apart by the ``mode`` param:

* ``model`` — the fig3 analytic throughput model evaluated at ``n`` in
  100–300.  Closed-form, so even the largest committee costs milliseconds;
  these cells pin the model's behaviour where the paper's plots end.
* ``attack`` — a full simulated coalition-attack cell (the fig4 construction:
  ``d = ceil(5n/9) - 1`` deceitful replicas, partitioned honest replicas,
  real client workload) at ``n = 100``.  These are the heavyweight cells
  whose wall clock the family's claims budget.

Simulated instances are single-threaded by design (determinism), so the
parallelism lives at the sweep-cell boundary: ``--jobs`` runs one seeded
simulation per worker.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.throughput import available_protocols
from repro.scenarios.library import attack_row, throughput_row
from repro.scenarios.registry import every, scenario
from repro.scenarios.spec import ScenarioSpec

#: Committee sizes of the analytic cells — where the paper's figure 3 ends
#: and beyond.
MODEL_SIZES = (100, 200, 300)

#: Committee size of the simulated attack cells.  One hundred replicas is the
#: paper's largest plotted committee and the acceptance point of the scale
#: work: both attack kinds must complete in minutes on a laptop-class host.
ATTACK_SIZE = 100

#: Event budget of one attack cell.  The simulator's default livelock guard
#: (5M events) is sized for small committees; an n=100 cell legitimately
#: processes ~10M events, so the family raises the guard with headroom.
ATTACK_MAX_EVENTS = 50_000_000

#: Wall-clock budget of one simulated n=100 attack cell, in seconds: "runs in
#: minutes", with headroom for slow shared CI runners (286 s and 435 s when
#: last recorded).
ATTACK_CELL_BUDGET_S = 900.0


def _scale_grid(scale: str) -> List[ScenarioSpec]:
    specs = [
        ScenarioSpec(
            family="scale",
            n=n,
            seed=0,
            params={"mode": "model"},
        )
        for n in MODEL_SIZES
    ]
    attacks = ("binary", "rbbcast") if scale == "full" else ("binary",)
    for attack in attacks:
        specs.append(
            ScenarioSpec(
                family="scale",
                n=ATTACK_SIZE,
                attack=attack,
                cross_partition_delay="1000ms",
                delay="aws",
                workload_transactions=12 * ATTACK_SIZE,
                batch_size=10,
                # One SBC instance: message volume grows ~n^3, so a single
                # instance keeps the n=100 cell in minutes while still
                # landing the attack and driving the full recovery.
                instances=1,
                seed=1,
                max_time=300.0,
                # Raise the livelock guard: an n=100 attack cell legitimately
                # processes ~10M events before the membership change settles.
                params={"mode": "attack", "max_events": ATTACK_MAX_EVENTS},
            )
        )
    return specs


@scenario(
    "scale",
    description="Hundreds-of-replicas cells: analytic model + n=100 attacks",
    grid=_scale_grid,
    tags=("extra", "scale", "perf"),
    claims={
        "the model keeps every protocol's throughput positive at n = 100-300": every(
            lambda row: all(row[protocol] > 0 for protocol in available_protocols()),
            "n", *available_protocols(), mode="model",
        ),
        # A cell that stalls or degenerates (dies on the livelock guard
        # mid-attack, say) would fit any budget.
        "every n=100 attack disagrees, commits and recovers": every(
            lambda row: row["disagreements"] > 0
            and row["committed_transactions"] > 0
            and row["recovered"],
            "attack", "disagreements", "committed_transactions", "recovered", mode="attack",
        ),
        f"every n=100 attack cell runs within {ATTACK_CELL_BUDGET_S:.0f} s": every(
            lambda row: row["wall_clock_s"] <= ATTACK_CELL_BUDGET_S,
            "attack", "wall_clock_s", mode="attack",
        ),
    },
)
def _run_scale_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    mode = spec.param("mode", "model")
    row = throughput_row(spec.n) if mode == "model" else attack_row(spec)
    row["mode"] = mode
    return row
