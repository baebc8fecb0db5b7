"""The paper's claims, as their families declare them.

The cheap families' claims run live on their small grids (``fig4``, ``fig6``
and ``sec53`` run live in CI's invariant sweep, ``scale`` at full scale).
Every claim is also fed rows it holds on and then a change that breaks it,
its positive control, and rows it cannot read, on which it must fail.
"""

import copy

import pytest

from repro.scenarios import ScenarioRunner, expand, get_family, iter_families
from repro.scenarios.library import throughput_row

LIVE = ("fig3", "appendix-b", "table1", "fig5")


def _attack(n, delay, disagreements, attack="binary", **fields):
    """An attack row with the fields the claims read, as at seed 1."""
    row = {"n": n, "seed": 1, "attack": attack, "delay": delay, "disagreements": disagreements}
    return {**row, "recovered": True, "excluded_replicas": n // 2, **fields}


#: Rows the other families' claims hold on, read off their sweeps.
SYNTHETIC = {
    "fig4": [_attack(9, "1000ms", 2), _attack(12, "1000ms", 2), _attack(18, "1000ms", 3)]
    + [_attack(9, "aws", 0, recovered=False), _attack(9, "1000ms", 15, attack="rbbcast")],
    "fig6": [
        _attack(9, "1000ms", 2, min_blockdepth=3, estimated_rho=0.5),
        _attack(18, "500ms", 18, attack="rbbcast", min_blockdepth=10, estimated_rho=0.75),
    ],
    # The reliable broadcast rows disagree less at 10 s: the claim reads the
    # binary attack only.
    "sec53": [_attack(n, delay, n // 6) for n in (9, 12, 18) for delay in ("5000ms", "10000ms")]
    + [_attack(12, "5000ms", 24, attack="rbbcast"), _attack(12, "10000ms", 23, attack="rbbcast")],
    "scale": [dict(throughput_row(n), mode="model") for n in (100, 200, 300)]
    + [
        _attack(100, "1000ms", count, attack, mode="attack", committed_transactions=900,
                wall_clock_s=took)
        for attack, count, took in (("binary", 12, 286.0), ("rbbcast", 40, 435.0))
    ],
}  # fmt: skip


def _where(match, **fields):
    """A change to a row set: overwrite ``fields`` on every matching row."""

    def change(rows):
        for row in rows:
            if match.items() <= row.items():
                row.update(fields)

    return change


#: (family, claim index, a change that breaks that claim).
BREAKS = [
    ("fig3", 0, _where({"n": 40}, **{"Red Belly": 0.0})),
    ("fig3", 1, _where({"n": 90}, zlb_vs_hotstuff=9.0)),
    ("fig3", 2, _where({"n": 10}, Polygraph=0.0)),
    ("fig3", 2, _where({"n": 90}, Polygraph=1e9)),
    ("fig3", 3, _where({"n": 90}, HotStuff=1e9)),
    ("fig3", 3, _where({"n": 90}, ZLB=0.0)),
    ("appendix-b", 0, _where({"delta": 0.6}, min_blockdepth=40)),
    ("appendix-b", 1, _where({"delta": 0.66}, min_blockdepth=1)),
    ("table1", 0, _where({"blocksize_txs": 1_000}, merge_time_ms=0.0)),
    ("table1", 0, _where({"blocksize_txs": 1_000}, merge_time_ms=1e9)),
    ("fig5", 0, _where({"n": 12, "delay": "1000ms"}, inclusion_time_s=None)),
    ("fig5", 1, _where({"n": 18, "delay": "1000ms"}, detect_time_s=0.1)),
    ("fig5", 1, _where({"n": 9, "delay": "500ms"}, detect_time_s=None)),
    ("fig4", 0, _where({"n": 9, "attack": "binary"}, disagreements=0)),
    ("fig4", 0, _where({"n": 12, "attack": "binary"}, recovered=False)),
    ("fig4", 0, _where({"n": 18, "attack": "binary"}, excluded_replicas=5)),
    ("fig4", 1, _where({"n": 18, "attack": "binary"}, disagreements=5)),
    ("fig6", 0, _where({"n": 9}, min_blockdepth=-1)),
    ("fig6", 0, _where({"n": 18}, estimated_rho=1.0)),
    ("sec53", 0, _where({"n": 12, "attack": "binary", "delay": "10000ms"}, disagreements=1)),
    ("scale", 0, _where({"n": 300, "mode": "model"}, HotStuff=0.0)),
    ("scale", 1, _where({"attack": "rbbcast"}, recovered=False)),
    ("scale", 1, _where({"attack": "binary"}, committed_transactions=0)),
    ("scale", 2, _where({"attack": "binary"}, wall_clock_s=901.0)),
]

CLAIMED = [family for family in iter_families() if family.claims]


@pytest.fixture(scope="module")
def holding_rows():
    live = {name: ScenarioRunner(jobs=2).run(expand(name)).rows for name in LIVE}
    return {**live, **SYNTHETIC}


def test_the_cheap_families_claims_hold_live(holding_rows):
    for name in LIVE:
        family = get_family(name)
        assert family.verdicts(holding_rows[name]) == [(claim, None) for claim, _ in family.claims]


def test_every_paper_family_has_claims_and_every_claim_a_positive_control():
    assert {family.name for family in CLAIMED} == {
        "fig3", "fig4", "fig5", "fig6", "table1", "appendix-b", "sec53", "scale",
    }  # fmt: skip
    assert {(family, index) for family, index, _ in BREAKS} == {
        (family.name, index) for family in CLAIMED for index in range(len(family.claims))
    }


@pytest.mark.parametrize("family_name, index, change", BREAKS)
def test_a_claim_fails_on_rows_that_break_it(holding_rows, family_name, index, change):
    family = get_family(family_name)
    rows = copy.deepcopy(holding_rows[family_name])
    assert family.verdicts(rows)[index][1] is None
    change(rows)
    reason = family.verdicts(rows)[index][1]
    assert isinstance(reason, str) and reason


@pytest.mark.parametrize("rows", [[], [{}]], ids=["no-rows", "a-row-without-fields"])
def test_no_claim_holds_on_rows_it_cannot_read(rows):
    for family in CLAIMED:
        for claim, reason in family.verdicts(rows):
            assert reason, (family.name, claim)
    assert get_family("fig4").verdicts([_attack(9, "500ms", 2)])[0][1] == (
        "no rows match attack='binary', delay='1000ms'"
    )
