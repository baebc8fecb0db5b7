"""Scale benchmark: hundreds-of-replicas cells within a wall-clock budget.

The acceptance point of the kernel-scaling work (verified-signature and
certificate-validity caches, memoised vote payloads, batched delay sampling,
coalesced delivery): the paper's largest plotted committee — ``n = 100``
under both coalition attacks — must complete in **minutes**, not hours, in a
single Python process.  Both tests run the registered ``scale`` family.

The analytic model cells (fig3 at n=100–300) always run — they cost
milliseconds and pin the family's plumbing.  The simulated n=100 attack
cells take minutes each, so they only run when ``REPRO_BENCH_SCALE=1`` is
set (CI's ``tier1-bench`` job sets it; plain tier-1 ``pytest`` stays fast).
"""

import os

import pytest

from repro.scenarios import ScenarioRunner, expand, run_specs

#: Wall-clock budget of one simulated n=100 attack cell, in seconds.  "Runs
#: in minutes" with headroom for slow shared CI runners (286 s and 435 s when
#: last recorded).
ATTACK_CELL_BUDGET_S = 900.0


def _scale_specs(mode):
    return [spec for spec in expand("scale", "full") if spec.param("mode") == mode]


def test_scale_model_cells_cover_paper_and_beyond():
    rows = run_specs(_scale_specs("model"))
    assert [row["n"] for row in rows] == [100, 200, 300]
    for row in rows:
        # The analytic model must stay well-behaved past the paper's plots:
        # every protocol keeps a positive finite throughput at n=300.
        assert all(
            value > 0 for key, value in row.items() if key not in ("n", "mode")
        ), row


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SCALE") != "1",
    reason="n=100 attack cells take minutes; set REPRO_BENCH_SCALE=1 to run",
)
def test_scale_attack_cells_within_budget():
    outcomes = ScenarioRunner().run(_scale_specs("attack")).outcomes
    assert [outcome.spec.attack for outcome in outcomes] == ["binary", "rbbcast"]
    for outcome in outcomes:
        # The attack must actually land, commit real transactions and
        # recover — a cell that stalls or degenerates (e.g. one that dies on
        # the livelock guard mid-attack) would trivially "fit the budget".
        row = outcome.row
        assert row["n"] == 100
        assert row["disagreements"] > 0
        assert row["committed_transactions"] > 0
        assert row["recovered"]
        assert outcome.wall_clock_s <= ATTACK_CELL_BUDGET_S, (
            f"{outcome.spec.label()} took {outcome.wall_clock_s:.0f}s — above "
            f"the {ATTACK_CELL_BUDGET_S}s scale budget"
        )
