"""The Blockchain Manager's execution-validated pipeline and system fixes.

Covers the stateful proposal validator (phantom inputs and double spends are
rejected before consensus votes for them), the counted commit-path screening,
reconciliation through :meth:`merge_remote_decision`, the workload
routing fix (benign replicas receive no traffic) and the pinned
``SystemResult.recovered`` predicate.
"""

import pytest

from repro.common.config import FaultConfig
from repro.common.types import FaultKind, recovery_threshold
from repro.ledger.block import make_genesis_block
from repro.ledger.merge import BlockchainRecord
from repro.ledger.transaction import TxInput, build_transfer
from repro.ledger.utxo import UTXO, UTXOTable
from repro.ledger.wallet import Wallet
from repro.ledger.workload import TransferWorkload, double_spend_pair
from repro.zlb.blockchain_manager import BlockchainManager
from repro.zlb.system import SystemResult, ZLBSystem


@pytest.fixture
def manager_and_workload():
    workload = TransferWorkload(num_accounts=6, seed=11)
    manager = BlockchainManager(
        replica_id=0,
        genesis=workload.genesis,
        initial_deposit=1_000,
        batch_size=5,
    )
    return manager, workload


class TestStatefulProposalValidation:
    def test_valid_batch_accepted(self, manager_and_workload):
        manager, workload = manager_and_workload
        assert manager.validate_proposal(1, workload.batch(4))
        assert manager.stats.proposals_validated == 1
        assert manager.stats.proposals_rejected == 0

    def test_phantom_input_proposal_rejected(self, manager_and_workload):
        manager, workload = manager_and_workload
        wallet = workload.wallets[0]
        phantom_input = TxInput(
            utxo_id="e" * 64 + ":0", account=wallet.address, amount=10
        )
        phantom = build_transfer(
            wallet, [phantom_input], [(workload.wallets[1].address, 10)], nonce=50
        )
        assert not manager.validate_proposal(1, [phantom])
        assert manager.stats.proposals_rejected == 1

    def test_intra_proposal_double_spend_rejected(self, manager_and_workload):
        manager, workload = manager_and_workload
        wallet = workload.wallets[0]
        utxo = manager.record.utxos.utxos_of(wallet.address)[0]
        tx1 = build_transfer(
            wallet, [utxo.as_input()], [(workload.wallets[1].address, 10)], nonce=0
        )
        tx2 = build_transfer(
            wallet, [utxo.as_input()], [(workload.wallets[2].address, 10)], nonce=1
        )
        assert manager.validate_proposal(1, [tx1])  # alone it is fine
        assert not manager.validate_proposal(1, [tx1, tx2])

    def test_already_committed_transaction_tolerated(self, manager_and_workload):
        manager, workload = manager_and_workload
        tx = workload.next_transaction()
        manager.record.append_block([tx])
        # A slow proposer re-broadcasting a decided batch is not equivocation.
        assert manager.validate_proposal(1, [tx])

    def test_spend_of_committed_output_rejected(self, manager_and_workload):
        manager, workload = manager_and_workload
        tx_bob, tx_carol, allocations = double_spend_pair(amount=100, seed=3)
        manager2 = BlockchainManager(
            replica_id=0, genesis=make_genesis_block(allocations), initial_deposit=100
        )
        manager2.record.append_block([tx_bob])
        assert not manager2.validate_proposal(1, [tx_carol])


class TestAdoptedUnvalidatedDecisions:
    @staticmethod
    def _decision(payloads, unvalidated=()):
        from repro.consensus.sbc import SBCDecision

        return SBCDecision(
            instance=0,
            bitmask={slot: 1 for slot in payloads},
            proposals=dict(payloads),
            binary_certificates={},
            justification_votes=[],
            decided_at=1.0,
            unvalidated_slots=tuple(unvalidated),
        )

    def test_forged_signature_in_adopted_payload_not_committed(
        self, manager_and_workload
    ):
        """A decision carrying adopted-unvalidated slots loses the
        'passed my validator' invariant: the commit path must re-verify
        signatures instead of trusting ``assume_verified``."""
        manager, workload = manager_and_workload
        forged = workload.next_transaction()
        forged.signatures.clear()
        decision = self._decision({1: [forged]}, unvalidated=(1,))
        block = manager.commit_decision(0, decision)
        assert len(block.transactions) == 0
        assert manager.stats.commit_invalid == 1
        assert not manager.record.contains_tx(forged.tx_id)

    def test_validated_decision_still_skips_reverification(
        self, manager_and_workload
    ):
        manager, workload = manager_and_workload
        tx = workload.next_transaction()
        decision = self._decision({1: [tx]})
        block = manager.commit_decision(0, decision)
        assert len(block.transactions) == 1

    def test_non_list_adopted_payload_does_not_crash_commit(
        self, manager_and_workload
    ):
        manager, _ = manager_and_workload
        decision = self._decision({1: 12345}, unvalidated=(1,))
        block = manager.commit_decision(0, decision)
        assert len(block.transactions) == 0


class TestMergeRemoteDecision:
    def test_phantom_remote_transactions_rejected(self):
        tx_bob, tx_carol, allocations = double_spend_pair(amount=500, seed=4)
        manager = BlockchainManager(
            replica_id=0, genesis=make_genesis_block(allocations), initial_deposit=1_000
        )
        attacker = Wallet("pipeline-attacker")
        phantom_input = TxInput(
            utxo_id="d" * 64 + ":0", account=attacker.address, amount=500
        )
        phantom = build_transfer(
            attacker, [phantom_input], [(Wallet("fence").address, 500)], nonce=0
        )
        outcome = manager.merge_remote_decision(0, {2: [phantom]})
        assert outcome.rejected_transactions == 1
        assert outcome.phantom_inputs == 1
        assert manager.stats.merge_rejected == 1
        assert manager.record.deposit == 1_000  # nothing refunded

    def test_genuine_remote_double_spend_realises_gain(self):
        tx_bob, tx_carol, allocations = double_spend_pair(amount=500, seed=5)
        manager = BlockchainManager(
            replica_id=0, genesis=make_genesis_block(allocations), initial_deposit=1_000
        )
        manager.record.append_block([tx_bob])
        manager.blocks_by_instance[0] = manager.record.blocks[-1]
        outcome = manager.merge_remote_decision(0, {2: [tx_carol]})
        assert outcome.merged_transactions == 1
        assert outcome.realized_gain == 500
        assert manager.realized_attack_gain() == 500
        # Fork-aware on request: the remote branch, forked at the parent of
        # our block for the instance, spent Alice's coin towards Carol.
        carol_account = tx_carol.outputs[0].account
        remote_block = manager.record.merged_blocks[-1]
        fork_height = manager.blocks_by_instance[0].index - 1
        deltas = manager.record.branch_balance_deltas(remote_block, fork_height)
        assert deltas[carol_account] == 500

    def test_unknown_fork_point_merges_against_current_state(self):
        """Without a local block for the instance the fork point is unknown:
        the merge runs against current state all the same, and there is no
        base for the branch's balances to diverge from."""
        tx_bob, tx_carol, allocations = double_spend_pair(amount=500, seed=8)
        manager = BlockchainManager(
            replica_id=0, genesis=make_genesis_block(allocations), initial_deposit=1_000
        )
        # No blocks_by_instance entry for instance 3.
        outcome = manager.merge_remote_decision(3, {2: [tx_carol]})
        assert outcome.merged_transactions == 1
        remote_block = manager.record.merged_blocks[-1]
        assert manager.record.branch_balance_deltas(remote_block, None) == {}

    def test_merge_never_rewinds_the_journal(self, monkeypatch):
        tx_bob, tx_carol, allocations = double_spend_pair(amount=500, seed=5)
        manager = BlockchainManager(
            replica_id=0, genesis=make_genesis_block(allocations), initial_deposit=1_000
        )
        manager.record.append_block([tx_bob])
        manager.blocks_by_instance[0] = manager.record.blocks[-1]
        rewinds = []
        view_at = BlockchainRecord.view_at
        monkeypatch.setattr(
            BlockchainRecord,
            "view_at",
            lambda record, height: rewinds.append(height) or view_at(record, height),
        )
        assert manager.merge_remote_decision(0, {2: [tx_carol]}).realized_gain == 500
        assert rewinds == []
        manager.record.branch_balance_deltas(manager.record.merged_blocks[-1], 0)
        assert rewinds == [0]

    def test_repeat_merge_changes_nothing_but_still_refunds(self):
        """A decision already merged from another confirmer: nothing merges,
        nothing is journalled, and ``RefundInputs`` still runs."""
        tx_bob, tx_carol, allocations = double_spend_pair(amount=500, seed=5)
        manager = BlockchainManager(
            replica_id=0, genesis=make_genesis_block(allocations), initial_deposit=1_000
        )
        record = manager.record
        record.append_block([tx_bob])
        manager.blocks_by_instance[0] = record.blocks[-1]
        manager.merge_remote_decision(0, {2: [tx_carol]})
        first, journal = record.summary(), len(record._journal)

        outcome = manager.merge_remote_decision(0, {2: [tx_carol]})
        assert (outcome.already_known, outcome.merged_transactions) == (1, 0)
        assert record.summary() == {**first, "merged_blocks": 2}
        assert len(record._journal) == journal

        # The input the deposit funded becomes spendable again: the next
        # repeat claws the gain back, and that mutation is journalled.
        spent = tx_carol.inputs[0]
        record.utxos.add(UTXO(utxo_id=spent.utxo_id, account=spent.account, amount=500))
        outcome = manager.merge_remote_decision(0, {2: [tx_carol]})
        assert outcome.realized_gain == -500
        assert record.realized_attack_gain == 0 and record.deposit == 1_000
        assert len(record._journal) == journal + 1


class TestWorkloadRouting:
    def test_benign_replicas_receive_no_workload(self):
        system = ZLBSystem.create(
            FaultConfig(n=7, deceitful=0, benign=2),
            seed=6,
            workload_transactions=21,
            batch_size=10,
        )
        benign = [
            replica
            for replica in system.replicas.values()
            if replica.fault is FaultKind.BENIGN
        ]
        proposing = [
            replica
            for replica in system.replicas.values()
            if not replica.standby and replica.fault is not FaultKind.BENIGN
        ]
        assert len(benign) == 2
        assert all(len(replica.blockchain.mempool) == 0 for replica in benign)
        assert sum(len(replica.blockchain.mempool) for replica in proposing) == 21

    def test_no_transactions_stranded(self):
        """Every submitted transfer is eventually committed (nothing routed to
        a mempool that never proposes)."""
        system = ZLBSystem.create(
            FaultConfig(n=4, benign=1),
            seed=7,
            workload_transactions=30,
            batch_size=10,
        )
        result = system.run_instances(3)
        assert result.committed_transactions == 30


class TestRecoveredPredicate:
    @staticmethod
    def _result(n: int, excluded) -> SystemResult:
        return SystemResult(
            n=n,
            fault_config=FaultConfig(n=n),
            simulated_time=1.0,
            messages_sent=0,
            messages_delivered=0,
            per_replica={},
            disagreeing_pairs=set(),
            disagreement_instances=set(),
            detect_time=None,
            exclusion_time=None,
            inclusion_time=None,
            excluded=list(excluded),
            included=[],
            final_committee=[],
            committed_transactions=0,
            deposit_shortfall=0,
        )

    def test_recovery_requires_ceil_n_third_exclusions(self):
        # The docstring's promise: excluded ≥ ceil(n/3), not merely non-empty.
        assert recovery_threshold(9) == 3
        assert not self._result(9, []).recovered
        assert not self._result(9, [0]).recovered
        assert not self._result(9, [0, 1]).recovered
        assert self._result(9, [0, 1, 2]).recovered
        assert self._result(9, [0, 1, 2, 3]).recovered

    def test_partial_exclusion_is_not_recovery(self):
        # n=4: threshold is ceil(4/3) = 2; a single exclusion cannot have
        # restored the < n/3 deceitful ratio.
        assert not self._result(4, [0]).recovered
        assert self._result(4, [0, 1]).recovered
