"""Integration tests: the headline claim — tolerate and recover from a colluding majority.

These tests exercise the full pipeline of Figure 2 under the binary consensus
attack with d = ceil(5n/9) - 1 deceitful replicas (a coalition larger than
n/2): disagreement, detection via proofs of fraud, exclusion consensus,
inclusion consensus and reconciliation by block merge.
"""

import pytest

from repro.common.config import FaultConfig
from repro.common.types import recovery_threshold
from repro.network.router import Router
from repro.network.topic import topic
from repro.obs.core import Probe
from repro.obs.metrics import TelemetryRegistry
from repro.zlb.system import AttackSpec, ZLBSystem

from tests.consensus.harness import of_kind, tap


@pytest.fixture(scope="module")
def attack_run():
    """One binary-consensus-attack run at n=9, d=4, shared by the assertions."""
    fault_config = FaultConfig.paper_attack(9)
    system = ZLBSystem.create(
        fault_config,
        seed=2,
        delay="aws",
        attack=AttackSpec(kind="binary", cross_partition_delay="1000ms"),
        workload_transactions=60,
        batch_size=10,
        max_time=600,
    )
    result = system.run_instances(2)
    return fault_config, system, result


class TestColludingMajorityRecovery:
    def test_coalition_is_a_majority(self, attack_run):
        fault_config, _, _ = attack_run
        assert fault_config.deceitful > fault_config.n / 3
        assert not fault_config.consensus_safe()

    def test_attack_causes_disagreement(self, attack_run):
        _, _, result = attack_run
        assert result.disagreements > 0
        assert len(result.disagreement_instances) >= 1

    def test_detection_reaches_threshold(self, attack_run):
        fault_config, _, result = attack_run
        assert result.detect_time is not None
        # Detection requires at least ceil(n/3) proofs of fraud.
        assert len(result.excluded) >= recovery_threshold(fault_config.n)

    def test_only_deceitful_replicas_excluded(self, attack_run):
        fault_config, _, result = attack_run
        deceitful = set(range(fault_config.deceitful))
        assert set(result.excluded) <= deceitful
        assert len(result.excluded) >= recovery_threshold(fault_config.n)

    def test_membership_change_completes(self, attack_run):
        _, _, result = attack_run
        assert result.recovered
        assert result.exclusion_time is not None
        assert result.inclusion_time is not None
        assert len(result.included) == len(result.excluded)

    def test_final_committee_has_honest_supermajority(self, attack_run):
        fault_config, _, result = attack_run
        deceitful = set(range(fault_config.deceitful))
        remaining_deceitful = deceitful & set(result.final_committee)
        # Convergence (Def. 3): the deceitful ratio drops below 1/3.
        assert len(remaining_deceitful) < len(result.final_committee) / 3

    def test_committee_size_restored(self, attack_run):
        fault_config, _, result = attack_run
        assert len(result.final_committee) == fault_config.n

    def test_reconciliation_merged_forked_branches(self, attack_run):
        _, system, _ = attack_run
        merges = [
            len(replica.blockchain.merge_outcomes)
            for replica in system.honest_replicas()
        ]
        assert any(count > 0 for count in merges)

    def test_consensus_resumes_after_recovery(self, attack_run):
        _, _, result = attack_run
        decided = [
            detail["decided_instances"]
            for detail in result.per_replica.values()
            if detail["fault"] == "honest"
        ]
        # At least one honest replica completed the post-recovery instance.
        assert any(1 in instances for instances in decided)

    def test_zero_loss_no_deposit_shortfall(self, attack_run):
        _, _, result = attack_run
        assert result.deposit_shortfall == 0

    def test_the_initial_honest_members_end_on_one_ledger(self, attack_run):
        _, system, result = attack_run
        assert result.violations == []
        honest = [replica for replica in system.honest_replicas() if replica.replica_id < 9]
        assert len({r.blockchain.record.state_digest() for r in honest}) == 1

    def test_the_final_committee_ends_on_one_ledger(self, attack_run):
        _, system, result = attack_run
        digests = {
            system.replicas[replica_id].blockchain.record.state_digest()
            for replica_id in result.final_committee
            if system.replicas[replica_id] in system.honest_replicas()
        }
        assert len(digests) == 1


def test_a_restarted_instance_leaves_no_route_behind(monkeypatch):
    """The membership change restarts the aborted instance under the next
    epoch: every route of the replaced ``SetByzantineConsensus`` — its prefix
    and its 2n component topics — leaves the router with it."""
    dropped = []
    unregister = Router.unregister
    monkeypatch.setattr(
        Router,
        "unregister",
        lambda router, prefix: dropped.append(prefix) or unregister(router, prefix),
    )
    system = ZLBSystem.create(
        FaultConfig.paper_attack(9),
        seed=2,
        delay="aws",
        attack=AttackSpec(kind="binary", cross_partition_delay="1000ms"),
        workload_transactions=60,
        batch_size=10,
        max_time=600,
    )
    assert system.run_instances(2).recovered
    # The exclusion and inclusion consensus detach their routes too: count
    # the restarted instances' alone.
    dropped = [prefix for prefix in dropped if prefix.segments[0] == "sbc"]
    assert dropped and len(dropped) % (2 * 9 + 1) == 0
    assert {len(prefix.segments) for prefix in dropped} == {3, 5}
    for replica in system.honest_replicas():
        live = {
            route.segments: handler
            for component in replica._sbc.values()
            for route, handler in component.routes()
        }
        routed = {
            segments: handler
            for length, table in replica.router._tables
            for segments, handler in table.items()
            if length > 1 and segments[0] == "sbc"
        }
        assert routed == live and len(live) == len(replica._sbc) * (2 * 9 + 1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recovery_leaves_no_membership_route_and_nothing_parked(seed):
    """The benchmark's attack cell at n=9.  Once the change completed, its two
    consensus instances are off the router, everything parked on the way was
    routed to them, and their late traffic is dropped on arrival (at the
    parent commit every replica kept it: 52-64 messages each at n=18)."""
    system = ZLBSystem.create(
        FaultConfig.paper_attack(9),
        seed=seed,
        delay="aws",
        attack=AttackSpec(kind="rbbcast", cross_partition_delay="1000ms"),
        workload_transactions=12 * 9,
        batch_size=10,
        max_time=300.0,
    )
    assert system.run_instances(1, until=300.0).recovered
    for replica in system.honest_replicas():
        assert replica.membership_change is None and replica.epoch == 1
        assert "membership" not in replica._early.parked
        assert sorted(
            segments
            for _, table in replica.router._tables
            for segments in table
            if segments[0] in ("excl", "incl")
        ) == [("excl",), ("incl",)]
        replica.probe = Probe(metrics=TelemetryRegistry())
        late = topic("incl", 0, "bin", replica.replica_id)
        assert replica.route(late, replica.replica_id, "BVAL", {"round": 0, "value": 1})
        assert "membership" not in replica._early.parked
        assert replica.probe.metrics.snapshot()["counters"] == {"asmr.early_dropped{reason=stale}": 1}


def test_a_proof_against_an_excluded_replica_starts_no_membership_change():
    """After recovery a late CONFIRM can teach a replica the proofs of fraud
    against the replicas it already excluded.  They were acted on: counting
    them again started an exclusion with nobody to exclude, which aborted
    the pending instances and never completed."""
    system = ZLBSystem.create(
        FaultConfig.paper_attack(9),
        seed=1,
        delay="aws",
        attack=AttackSpec(kind="rbbcast", cross_partition_delay="1000ms"),
        workload_transactions=12 * 9,
        batch_size=10,
        max_time=300.0,
    )
    seen = tap(system.replicas.values())
    assert system.run_instances(1, until=300.0).recovered
    gossip = [message.body for message in of_kind(seen, "POFS")]
    for replica in system.honest_replicas():
        if replica.replica_id >= 9:
            continue
        assert replica.excluded_replicas and replica.membership_change is None
        for body in gossip:
            replica._handle_pofs(0, body)
        assert set(replica.pofs) >= replica.excluded_replicas
        assert replica.membership_change is None and replica.epoch == 1


class TestReliableBroadcastAttack:
    def test_rbbcast_attack_detected_and_recovered(self):
        fault_config = FaultConfig.paper_attack(9)
        system = ZLBSystem.create(
            fault_config,
            seed=5,
            delay="aws",
            attack=AttackSpec(kind="rbbcast", cross_partition_delay="2000ms"),
            workload_transactions=60,
            batch_size=10,
            max_time=900,
        )
        result = system.run_instances(2)
        # The equivocating proposers leave signed INIT/ECHO traces; whenever a
        # disagreement forms the coalition is identified and excluded.
        if result.disagreements:
            assert result.detect_time is not None
            assert set(result.excluded) <= set(range(fault_config.deceitful))
