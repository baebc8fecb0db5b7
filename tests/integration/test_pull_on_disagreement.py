"""Integration: reconciliation pulls the conflicting proposals it lacks.

CONFIRM carries per-slot proposal digests, never the proposals.  Under the
reliable broadcast attack the two partitions decide different payloads for the
coalition's slots, so each honest replica has to fetch the other branch's
payloads from the replicas that confirmed them — each confirmer once per
``(slot, digest)``, at most ``ceil(n/3)`` of them, one copy kept — before the
Blockchain Manager can merge.  The run is fully instrumented: the
agreement, supply-conservation and zero-loss monitors must stay green.
"""

import pytest

from repro import obs
from repro.common.config import FaultConfig
from repro.common.types import recovery_threshold
from repro.scenarios import ScenarioSpec, run_system
from repro.zlb.system import AttackSpec, ZLBSystem

from tests.consensus.harness import of_kind, tap


def test_rbbcast_cell_pulls_each_conflicting_proposal_once_and_stays_green():
    probe = obs.Probe.at_level("all")
    with obs.activate(probe):
        system = ZLBSystem.create(
            FaultConfig.paper_attack(9),
            seed=3,
            delay="aws",
            attack=AttackSpec(kind="rbbcast", cross_partition_delay="1000ms"),
            workload_transactions=108,
            batch_size=10,
            max_time=300,
        )
        seen = tap(system.replicas.values())
        result = system.run_instances(2, until=300)
    # A PULL that wants nothing named fetches a whole decision record (a
    # replica filling a gap), answered by the record: not reconciliation.
    pulls = [message for message in of_kind(seen, "PULL") if "wanted" in message.body]
    replies = [
        message for message in of_kind(seen, "PROPOSALS") if "digest" not in message.body
    ]
    assert result.violations == []
    assert result.disagreements > 0 and result.recovered
    assert result.deposit_shortfall == 0

    # Each replica asked each confirmer of a conflicting (instance, slot,
    # digest) once, and no more than ceil(n/3) confirmers.
    asked = [
        (message.sender, message.recipient, message.body["instance"], slot, digest)
        for message in pulls
        for slot, digest in message.body["wanted"].items()
    ]
    assert asked and len(asked) == len(set(asked))
    per_key = {}
    for sender, _, instance, slot, digest in asked:
        per_key[sender, instance, slot, digest] = per_key.get((sender, instance, slot, digest), 0) + 1
    assert max(per_key.values()) <= recovery_threshold(9)
    # Nothing decided locally under the same digest is asked for; on the
    # attacked instance only the coalition's slots conflict; and every
    # request was answered in full.
    for sender, _, instance, slot, digest in asked:
        local = system.replicas[sender].instances[instance].decision
        assert local.proposal_digests.get(slot) != digest
    deceitful = set(range(system.fault_config.deceitful))
    assert {slot for _, _, instance, slot, _ in asked if instance == 0} <= deceitful
    assert sum(len(message.body["proposals"]) for message in replies) == len(asked)

    merged = 0
    for replica in system.honest_replicas():
        for record in replica.instances.values():
            assert record.pending_merges == []
            assert set(record.pulled) == set(record.pulls_asked)
        if replica.history.disagreed:
            assert replica.blockchain.merge_outcomes
            merged += 1
    assert merged > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_rbbcast_cell_recovers_when_one_replica_starts_from_fewer_pofs(seed):
    # On these seeds one honest replica's first conflicting CONFIRM proves
    # three of the four culprits: its exclusion committee has to shrink while
    # the consensus runs (Alg. 1 lines 23-27), or nobody is ever excluded.
    result = run_system(
        ScenarioSpec(
            family="fig4",
            n=9,
            attack="rbbcast",
            cross_partition_delay="1000ms",
            seed=seed,
        )
    )
    assert result.disagreements > 0
    assert result.excluded == [0, 1, 2, 3] and result.included == [9, 10, 11, 12]
    assert result.recovered
