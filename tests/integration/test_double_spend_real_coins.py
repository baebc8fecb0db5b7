"""Integration regression: the reliable broadcast attack spends *real* coins.

Before the execution-validated ledger pipeline, `_build_double_spend_variants`
derived the coalition's inputs from a throwaway single-allocation genesis, so
every "double spend" referenced UTXO ids that did not exist on the deployment
chain and the zero-loss accounting measured nothing.  These tests pin the fix:

* the conflicting transfers reference UTXOs present in the deployment genesis,
* both partitions' variants contest the *same* real UTXO,
* committed attack transactions execute against the honest replicas' tables,
* the realised gain is real (and covered by the seized deposits: zero loss).
"""

import pytest

from repro.common.config import FaultConfig
from repro.crypto.hashing import hash_payload
from repro.zlb.system import AttackSpec, ZLBSystem


@pytest.fixture(scope="module")
def rbbcast_run():
    """One reliable-broadcast-attack run at n=9, d=4, shared by the assertions."""
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
    # Genesis UTXO ids, captured before the run mutates the tables (the
    # highest-id replica is a standby pool member whose table stays pristine).
    genesis_ids = {
        utxo.utxo_id
        for utxo in system.replicas[max(system.replicas)].blockchain.record.utxos
    }
    result = system.run_instances(2)
    return fault_config, system, genesis_ids, result


def _attack_variants(system):
    strategy = next(
        replica.attack_strategy
        for replica in system.replicas.values()
        if getattr(replica, "attack_strategy", None) is not None
    )
    return strategy.variants


class TestDoubleSpendSpendsRealCoins:
    def test_variant_inputs_exist_in_deployment_genesis(self, rbbcast_run):
        _, system, genesis_ids, _ = rbbcast_run
        for slot_variants in _attack_variants(system).values():
            for variant in slot_variants:
                for transaction in variant:
                    for tx_input in transaction.inputs:
                        assert tx_input.utxo_id in genesis_ids, (
                            f"attack input {tx_input.utxo_id} is not a "
                            "deployment-genesis UTXO (phantom double spend)"
                        )

    def test_conflicting_variants_contest_the_same_utxo(self, rbbcast_run):
        _, system, _, _ = rbbcast_run
        for slot, slot_variants in _attack_variants(system).items():
            input_sets = [
                frozenset(
                    tx_input.utxo_id
                    for transaction in variant
                    for tx_input in transaction.inputs
                )
                for variant in slot_variants
            ]
            assert len(slot_variants) >= 2
            assert len(set(input_sets)) == 1, (
                f"slot {slot}: partitions were given non-conflicting variants"
            )

    def test_committed_attack_transactions_reference_real_utxos(self, rbbcast_run):
        _, system, genesis_ids, result = rbbcast_run
        attack_inputs = {
            tx_input.utxo_id
            for slot_variants in _attack_variants(system).values()
            for variant in slot_variants
            for transaction in variant
            for tx_input in transaction.inputs
        }
        assert result.disagreements > 0
        committed_attack_txs = 0
        for replica in system.honest_replicas():
            record = replica.blockchain.record
            for block in record.blocks[1:] + record.merged_blocks:
                for transaction in block.transactions:
                    inputs = {i.utxo_id for i in transaction.inputs}
                    if inputs & attack_inputs:
                        committed_attack_txs += 1
                        assert inputs <= genesis_ids
        assert committed_attack_txs > 0, "no attack transaction ever committed"

    def test_no_phantom_rejections_in_attack_run(self, rbbcast_run):
        """The fixed variants execute cleanly: nothing the coalition sent is
        screened out as phantom by honest replicas."""
        _, system, _, _ = rbbcast_run
        for replica in system.honest_replicas():
            assert replica.blockchain.stats.merge_phantom_inputs == 0
            assert replica.blockchain.stats.commit_phantom == 0

    def test_realized_gain_is_real_and_covered(self, rbbcast_run):
        fault_config, system, _, result = rbbcast_run
        # The coalition genuinely double-spent: honest replicas funded the
        # conflicting inputs from the deposit, so the realised gain is the
        # double-spend amount times the number of landed conflicts.
        assert result.realized_gain > 0
        assert result.realized_gain % 1_000 == 0  # multiples of the attack amount
        # Zero loss: seizures cover the realised gain, deposit never negative.
        assert result.recovered
        assert result.seized_deposit >= result.realized_gain
        assert result.deposit_shortfall == 0
        assert result.attacker_net_gain <= 0
        assert result.zero_loss
        assert result.to_row()["realized_gain"] == result.realized_gain

    def test_honest_replicas_agree_on_merged_wealth(self, rbbcast_run):
        """After reconciliation every honest member of the initial committee
        accounts the same realised gain: whether it saw the fork or filled
        its gap from a peer's decision record, it merged the same conflicting
        decisions; so does every replica included after recovery, which
        caught up on the records of both."""
        fault_config, system, _, result = rbbcast_run
        gains = {
            replica.blockchain.record.realized_attack_gain
            for replica in system.honest_replicas()
        }
        assert len(system.honest_replicas()) == fault_config.n - fault_config.deceitful + len(
            result.included
        )
        assert len(gains) == 1
        assert gains.pop() > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_merged_ledgers_agree_after_recovery(seed):
    """The benchmark's ``sim-attack-n18`` construction at n=9: whatever order
    the conflicting decisions reached them in, and however often, the honest
    committee replicas that decided the instance merge their way to one
    ledger, and the included replicas catch up on it — the merge's outcome,
    pinned apart from the fig4 golden."""
    n = 9
    fault_config = FaultConfig.paper_attack(n)
    system = ZLBSystem.create(
        fault_config,
        seed=seed,
        delay="aws",
        attack=AttackSpec(kind="rbbcast", cross_partition_delay="1000ms"),
        workload_transactions=12 * n,
        batch_size=10,
        max_time=300.0,
    )
    result = system.run_instances(1, until=300.0)
    assert result.recovered
    assert result.deposit_shortfall == 0
    assert result.realized_gain <= result.seized_deposit
    ledgers = {}
    for replica in system.honest_replicas():
        if 0 not in replica.decided_instances():
            continue
        record = replica.blockchain.record
        summary = record.summary()
        # How many confirmers a replica heard the same decision from.
        del summary["merged_blocks"]
        ledgers[replica.replica_id] = (
            summary,
            hash_payload(record.utxos.to_payload()),
            replica.blockchain.conserved_total(),
        )
    assert len(ledgers) == n - fault_config.deceitful + len(result.included)
    first, *others = ledgers.values()
    assert first[0]["realized_attack_gain"] == result.realized_gain > 0
    assert all(other == first for other in others)
