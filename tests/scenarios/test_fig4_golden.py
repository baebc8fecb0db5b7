"""Golden dispatch-parity test for the Topic/Router refactor.

One fixed-seed Figure 4 cell (n = 9, binary consensus attack, 1000 ms
cross-partition delay) must keep producing **exactly** the outcomes recorded
from the pre-refactor string-demux implementation — decisions, disagreement
counts, membership changes, message totals and even the final simulated clock
to the last float bit.  The routing layer, the fan-out-aware broadcast events
and every memoisation added since are required to be behaviour-preserving;
this test is the tripwire.

If this test fails after an *intentional* semantic change to the protocol
stack, re-record the golden values (see the module-level dict) in the same
commit and call the change out in the commit message.
"""

from repro.scenarios import ScenarioSpec, run_system

#: The golden cell; everything it does not name is the spec's default (aws
#: base delay, 12 transfers per replica, batches of 10, 2 instances, seed 1).
GOLDEN_SPEC = ScenarioSpec(
    family="fig4", n=9, attack="binary", cross_partition_delay="1000ms"
)

#: Outcomes of the golden cell at seed 1 — the one copy: the transport-seam
#: pin (``tests/network/test_transport.py``) and the instrumentation pin
#: (``tests/obs/test_golden.py``) import it.  Re-recorded when ECHO / READY /
#: CONFIRM went digest-only with pull-on-miss (a protocol change: only INIT
#: ships a proposal unasked, a late value is fetched) and the exclusion
#: committee began to shrink while its consensus runs; before that: 78
#: committed, 11 685 messages, clock 16.686154595607622, replica 5 decided
#: [0], 7 [].  Re-recorded again when commits went in instance order and a
#: replica began to fetch the decision record of an instance it missed
#: (gap fill): replicas 5 and 7 now decide [0, 1] like every honest member
#: (before: [] and [0]); before that 11 868 messages, clock
#: 18.116196451486925.  Re-recorded when binary rounds started at 1 (a
#: benign slot decides in one round) and the included replicas 9-12 began to
#: catch up on the chain (before: [] each, 78 committed, 11 958 messages,
#: clock 18.131454255185922).
GOLDEN = {
    "disagreements": 2,
    "disagreement_instances": [0],
    "disagreeing_pairs": [(0, 0), (0, 2)],
    "excluded": [0, 1, 2, 3],
    "included": [9, 10, 11, 12],
    "decided_instances": {
        0: [0, 1],
        1: [0, 1],
        2: [0, 1],
        3: [0, 1],
        4: [0, 1],
        5: [0, 1],
        6: [0, 1],
        7: [0, 1],
        8: [0, 1],
        9: [0, 1],
        10: [0, 1],
        11: [0, 1],
        12: [0, 1],
    },
    "committed_transactions": 92,
    "messages_sent": 10108,
    "messages_delivered": 10108,
    "simulated_time": 18.614782707129915,
}


def test_fig4_binary_attack_cell_matches_golden_outcomes():
    result = run_system(GOLDEN_SPEC)
    assert result.disagreements == GOLDEN["disagreements"]
    assert sorted(result.disagreement_instances) == GOLDEN["disagreement_instances"]
    assert sorted(result.disagreeing_pairs) == GOLDEN["disagreeing_pairs"]
    assert result.excluded == GOLDEN["excluded"]
    assert result.included == GOLDEN["included"]
    decided = {
        replica_id: detail["decided_instances"]
        for replica_id, detail in result.per_replica.items()
    }
    assert decided == GOLDEN["decided_instances"]
    assert result.committed_transactions == GOLDEN["committed_transactions"]
    # Message totals and the final clock pin the event schedule itself: the
    # fan-out-aware broadcast kernel must consume the seeded RNG in exactly
    # the per-recipient order of the original implementation.
    assert result.messages_sent == GOLDEN["messages_sent"]
    assert result.messages_delivered == GOLDEN["messages_delivered"]
    assert result.simulated_time == GOLDEN["simulated_time"]
