"""Unit tests for the Blockchain Manager and the deposit policy."""

import pytest

from repro.common.errors import ConfigurationError
from repro.ledger.block import make_genesis_block
from repro.ledger.workload import TransferWorkload
from repro.zlb.blockchain_manager import BlockchainManager, replica_deposit_account
from repro.zlb.payment import DepositPolicy, ZeroLossPaymentSystem


@pytest.fixture
def manager_and_workload():
    workload = TransferWorkload(num_accounts=6, seed=1)
    allocations = list(workload.genesis_allocations)
    allocations.append((replica_deposit_account(0), 500))
    manager = BlockchainManager(
        replica_id=0,
        genesis=make_genesis_block(allocations),
        initial_deposit=1_000,
        batch_size=5,
    )
    return manager, workload


class TestBlockchainManager:
    def test_submit_and_batch(self, manager_and_workload):
        manager, workload = manager_and_workload
        accepted = manager.submit_transactions(workload.batch(8))
        assert accepted == 8
        proposal = manager.next_proposal(0)
        assert len(proposal) == 5  # batch_size

    def test_invalid_transaction_rejected(self, manager_and_workload):
        manager, workload = manager_and_workload
        tx = workload.next_transaction()
        tx.signatures.clear()
        assert not manager.submit_transaction(tx)

    def test_validate_proposal(self, manager_and_workload):
        manager, workload = manager_and_workload
        good = workload.batch(3)
        assert manager.validate_proposal(1, good)
        assert not manager.validate_proposal(1, "not-a-list")
        assert not manager.validate_proposal(1, [object()])

    def test_punish_replicas_moves_balance_to_deposit(self, manager_and_workload):
        manager, _ = manager_and_workload
        before = manager.record.deposit
        seized = manager.punish_replicas([0])
        assert seized == 500
        assert manager.record.deposit == before + 500

    def test_summary_keys(self, manager_and_workload):
        manager, _ = manager_and_workload
        summary = manager.summary()
        assert "mempool" in summary and "committed_transactions" in summary


class TestDepositPolicy:
    def test_per_replica_deposit(self):
        policy = DepositPolicy(gain_bound=900, deposit_factor=1.0)
        # Each replica deposits 3bG/n so any n/3 coalition holds D = bG.
        assert policy.per_replica_deposit(9) == 300
        assert policy.coalition_deposit == 900

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DepositPolicy(gain_bound=0)
        with pytest.raises(ConfigurationError):
            DepositPolicy(deposit_factor=0)
        with pytest.raises(ConfigurationError):
            DepositPolicy(finalization_blockdepth=-1)
        with pytest.raises(ConfigurationError):
            DepositPolicy().per_replica_deposit(0)


class TestZeroLossPaymentSystem:
    def test_zero_loss_decision(self):
        payments = ZeroLossPaymentSystem(
            DepositPolicy(deposit_factor=0.1, finalization_blockdepth=5), branches=3
        )
        assert payments.is_zero_loss(0.3)
        assert not payments.is_zero_loss(0.95)

    def test_required_blockdepth_consistency(self):
        payments = ZeroLossPaymentSystem(
            DepositPolicy(deposit_factor=0.1, finalization_blockdepth=5), branches=3
        )
        m = payments.required_blockdepth(0.55)
        assert abs(m - 4) <= 1  # Appendix B example

    def test_expected_flux_sign(self):
        payments = ZeroLossPaymentSystem(
            DepositPolicy(deposit_factor=0.1, finalization_blockdepth=5), branches=3
        )
        assert payments.expected_flux(0.1) > 0
        assert payments.expected_flux(0.99) < 0

    def test_describe(self):
        payments = ZeroLossPaymentSystem(DepositPolicy(), branches=3)
        description = payments.describe()
        assert description["branches"] == 3.0
        assert 0 < description["tolerated_probability"] <= 1

    def test_invalid_branches(self):
        with pytest.raises(ConfigurationError):
            ZeroLossPaymentSystem(DepositPolicy(), branches=0)
