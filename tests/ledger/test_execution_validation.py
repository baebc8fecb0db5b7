"""Execution-validated commit path: screening, phantom rejection, fork views.

These are the regression tests of the ledger-pipeline refactor: appends screen
batches against the branch state, merges reject transactions whose inputs
never existed (instead of refunding them from the deposit — the bug that let a
phantom double spend fake a realised gain), the journal reconstructs the UTXO
view at any height, and the merge accounts the coalition's *actually realised*
gain.
"""

import pytest

from repro.ledger.block import Block, make_genesis_block
from repro.ledger.merge import BlockchainRecord
from repro.ledger.transaction import Transaction, TxInput, TxOutput, build_transfer
from repro.ledger.utxo import UTXOTable
from repro.ledger.wallet import Wallet
from repro.ledger.workload import TransferWorkload, double_spend_pair


def _phantom_transaction(wallet: Wallet, amount: int = 50) -> Transaction:
    """A properly signed transfer spending a UTXO that never existed."""
    phantom_input = TxInput(
        utxo_id="f" * 64 + ":0", account=wallet.address, amount=amount
    )
    recipient = Wallet("phantom-recipient")
    return build_transfer(
        wallet, [phantom_input], [(recipient.address, amount)], nonce=0
    )


class TestFilterForAppend:
    def test_classifies_rejections(self):
        alice, bob = Wallet("fa-alice"), Wallet("fa-bob")
        record = BlockchainRecord(genesis_allocations=[(alice.address, 100)])
        view = UTXOTable(list(record.utxos))
        inputs = view.select_inputs(alice.address, 100)
        good = build_transfer(alice, inputs, [(bob.address, 100)], nonce=0)
        conflicting = build_transfer(alice, inputs, [(bob.address, 100)], nonce=1)
        unsigned = build_transfer(alice, inputs, [(bob.address, 100)], nonce=2)
        unsigned.signatures.clear()
        phantom = _phantom_transaction(alice)

        report = record.filter_for_append([good, conflicting, unsigned, phantom, good])
        assert report.accepted == [good]
        assert report.conflicting == 1  # second spend of the same input
        assert report.invalid == 1
        assert report.phantom == 1
        assert report.duplicate == 1  # `good` offered twice in one batch

    def test_spent_input_is_conflict_not_phantom(self):
        tx_bob, tx_carol, allocations = double_spend_pair(amount=1_000)
        record = BlockchainRecord(genesis_allocations=allocations)
        record.append_block([tx_bob])
        report = record.filter_for_append([tx_carol])
        assert report.conflicting == 1
        assert report.phantom == 0
        assert report.accepted == []

    def test_assume_verified_skips_signatures_not_execution(self):
        alice, bob = Wallet("av-alice"), Wallet("av-bob")
        record = BlockchainRecord(genesis_allocations=[(alice.address, 100)])
        view = UTXOTable(list(record.utxos))
        inputs = view.select_inputs(alice.address, 100)
        unsigned = build_transfer(alice, inputs, [(bob.address, 100)], nonce=0)
        unsigned.signatures.clear()
        # Signature verification is skipped, execution screening is not.
        report = record.filter_for_append([unsigned], assume_verified=True)
        assert report.accepted == [unsigned]
        phantom = _phantom_transaction(alice)
        report = record.filter_for_append([phantom], assume_verified=True)
        assert report.phantom == 1 and not report.accepted


class TestMergePhantomRejection:
    def test_phantom_inputs_rejected_not_refunded(self):
        alice = Wallet("mp-alice")
        record = BlockchainRecord(
            genesis_allocations=[(alice.address, 100)], initial_deposit=1_000
        )
        phantom = _phantom_transaction(alice, amount=60)
        block = Block(index=1, parent_hash="x", transactions=(phantom,))
        outcome = record.merge_block(block)
        assert outcome.merged_transactions == 0
        assert outcome.rejected_transactions == 1
        assert outcome.phantom_inputs == 1
        # The deposit was NOT charged: nothing real was double-spent.
        assert record.deposit == 1_000
        assert outcome.realized_gain == 0
        assert record.realized_attack_gain == 0
        assert not record.contains_tx(phantom.tx_id)

    def test_genuine_double_spend_still_refunded(self):
        tx_bob, tx_carol, allocations = double_spend_pair(amount=1_000)
        record = BlockchainRecord(genesis_allocations=allocations, initial_deposit=2_000)
        record.append_block([tx_bob])
        block = Block(index=1, parent_hash="x", transactions=(tx_carol,))
        outcome = record.merge_block(block)
        assert outcome.refunded_inputs == 1
        assert outcome.realized_gain == 1_000
        assert record.realized_attack_gain == 1_000
        assert record.deposit == 1_000

    def test_conflict_within_merged_block_refunded_not_phantom(self):
        """Two remote transactions spending the same locally-unspent UTXO:
        the first consumes it, the second is a genuine double spend that
        Alg. 2 must refund from the deposit — not reject as phantom (the
        consumed index is only journalled after the merge)."""
        tx_bob, tx_carol, allocations = double_spend_pair(amount=700)
        record = BlockchainRecord(
            genesis_allocations=allocations, initial_deposit=2_000
        )
        block = Block(index=1, parent_hash="x", transactions=(tx_bob, tx_carol))
        outcome = record.merge_block(block)
        assert outcome.merged_transactions == 2
        assert outcome.rejected_transactions == 0
        assert outcome.phantom_inputs == 0
        assert outcome.refunded_inputs == 1
        assert outcome.realized_gain == 700
        # Both recipients are whole; the deposit funded the conflict.
        assert record.utxos.balance(tx_bob.outputs[0].account) == 700
        assert record.utxos.balance(tx_carol.outputs[0].account) == 700
        assert record.deposit == 1_300

    def test_malformed_transactions_rejected(self):
        alice = Wallet("mm-alice")
        record = BlockchainRecord(genesis_allocations=[(alice.address, 100)])
        shapeless = Transaction(inputs=(), outputs=(TxOutput("nobody", 5),))
        block = Block(index=1, parent_hash="x", transactions=(shapeless,))
        outcome = record.merge_block(block)
        assert outcome.rejected_transactions == 1
        assert outcome.merged_transactions == 0

    def test_unsigned_theft_of_live_utxo_rejected_at_merge(self):
        """A fabricated, unsigned transaction spending an honest user's live
        UTXO must not merge: the remote branch may have been decided by a
        colluding quorum alone, so merges verify signatures in full."""
        alice, thief = Wallet("mt-alice"), Wallet("mt-thief")
        record = BlockchainRecord(genesis_allocations=[(alice.address, 100)])
        victim_utxo = record.utxos.utxos_of(alice.address)[0]
        theft = Transaction(
            inputs=(victim_utxo.as_input(),),
            outputs=(TxOutput(thief.address, 100),),
        )  # well-shaped, input exists — but nobody signed it
        block = Block(index=1, parent_hash="x", transactions=(theft,))
        outcome = record.merge_block(block)
        assert outcome.rejected_transactions == 1
        assert outcome.merged_transactions == 0
        # Alice keeps her coin.
        assert record.utxos.balance(alice.address) == 100
        assert record.utxos.balance(thief.address) == 0

    def test_realized_gain_recovers_on_refund_inputs(self):
        """RefundInputs claws realised gain back when the funded UTXO reappears."""
        tx_bob, tx_carol, allocations = double_spend_pair(amount=500)
        record = BlockchainRecord(genesis_allocations=allocations, initial_deposit=1_000)
        record.append_block([tx_bob])
        record.merge_block(
            Block(index=1, parent_hash="x", transactions=(tx_carol,))
        )
        assert record.realized_attack_gain == 500
        # Make the refunded UTXO spendable again (as if recreated on a third
        # branch): the next merge's RefundInputs consumes it and refills the
        # deposit, clawing the realised gain back.
        from repro.ledger.utxo import UTXO

        spent_id = tx_carol.inputs[0].utxo_id
        record.utxos.add(
            UTXO(utxo_id=spent_id, account=tx_carol.inputs[0].account, amount=500)
        )
        outcome = record.merge_block(
            Block(index=2, parent_hash="y", transactions=())
        )
        assert record.realized_attack_gain == 0
        assert outcome.realized_gain == -500
        assert record.deposit == 1_000


class TestForkViews:
    def test_view_at_rewinds_history(self):
        workload = TransferWorkload(num_accounts=4, seed=9)
        record = BlockchainRecord(genesis_allocations=workload.genesis_allocations)
        genesis_balances = {
            account: record.utxos.balance(account)
            for account in {u.account for u in record.utxos}
        }
        record.append_block(workload.batch(5))
        record.append_block(workload.batch(5))
        view = record.view_at(0)
        for account, balance in genesis_balances.items():
            assert view.balance(account) == balance
        with pytest.raises(Exception):
            record.view_at(99)

    def test_branch_balance_deltas_relative_to_fork(self):
        tx_bob, tx_carol, allocations = double_spend_pair(amount=1_000)
        record = BlockchainRecord(genesis_allocations=allocations, initial_deposit=2_000)
        record.append_block([tx_bob])
        block = Block(index=1, parent_hash="x", transactions=(tx_carol,))
        record.merge_block(block)
        deltas = record.branch_balance_deltas(block, fork_height=0)
        carol_account = tx_carol.outputs[0].account
        alice_account = tx_carol.inputs[0].account
        assert deltas[carol_account] == 1_000
        assert deltas[alice_account] == -1_000
        # Without a fork point there is no base to diverge from.
        assert record.branch_balance_deltas(block, fork_height=None) == {}

    def test_branch_balance_deltas_is_a_read_only_query(self):
        """Asked before or after the merge, the report is the same and leaves
        the record exactly as it found it."""
        tx_bob, tx_carol, allocations = double_spend_pair(amount=1_000)
        record = BlockchainRecord(genesis_allocations=allocations, initial_deposit=2_000)
        record.append_block([tx_bob])
        unsigned = Transaction(
            inputs=tx_carol.inputs, outputs=(TxOutput("nobody", 1_000),)
        )
        block = Block(
            index=1,
            parent_hash="x",
            transactions=(tx_carol, unsigned, _phantom_transaction(Wallet("ro-ghost"))),
        )

        def state():
            return record.summary(), record.utxos.to_payload(), len(record._journal)

        before_state = state()
        before = record.branch_balance_deltas(block, fork_height=0)
        assert state() == before_state
        outcome = record.merge_block(block)
        assert (outcome.merged_transactions, outcome.rejected_transactions) == (1, 2)
        after_state = state()
        assert record.branch_balance_deltas(block, fork_height=0) == before
        assert state() == after_state
        # Only the valid transfer diverged: the unsigned and the phantom
        # transaction moved nothing on the branch either.
        assert before == {
            tx_carol.outputs[0].account: 1_000,
            tx_carol.inputs[0].account: -1_000,
        }

    def test_view_at_survives_punishment_and_merge(self):
        tx_bob, tx_carol, allocations = double_spend_pair(amount=800)
        record = BlockchainRecord(genesis_allocations=allocations, initial_deposit=2_000)
        alice_account = allocations[0][0]
        record.append_block([tx_bob])
        record.merge_block(
            Block(index=1, parent_hash="x", transactions=(tx_carol,))
        )
        record.punish_account(tx_carol.outputs[0].account)
        view = record.view_at(0)
        assert view.balance(alice_account) == 800

    def test_summary_reports_gain_accounting(self):
        record = BlockchainRecord()
        summary = record.summary()
        assert "realized_attack_gain" in summary
        assert "seized_total" in summary


class TestSharedGenesis:
    def test_prebuilt_genesis_matches_allocations(self):
        allocations = [("acct-a", 10), ("acct-b", 20)]
        prebuilt = make_genesis_block(allocations)
        shared = BlockchainRecord(genesis=prebuilt)
        rebuilt = BlockchainRecord(genesis_allocations=allocations)
        assert shared.blocks[0].block_hash == rebuilt.blocks[0].block_hash
        assert {u.utxo_id for u in shared.utxos} == {u.utxo_id for u in rebuilt.utxos}
