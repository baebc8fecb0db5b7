"""Unit tests for transactions and wallets."""

import dataclasses

import pytest

from repro.common.errors import InvalidTransactionError
from repro.crypto.hashing import hash_payload
from repro.crypto.signatures import EcdsaSigner
from repro.ledger.block import make_genesis_block
from repro.ledger.transaction import (
    PAPER_TX_SIZE_BYTES,
    Transaction,
    TxInput,
    TxOutput,
    build_multi_source_transfer,
    build_transfer,
)
from repro.ledger.utxo import UTXOTable
from repro.ledger.wallet import Wallet, verify_wallet_signature
from repro.network.codec import decode_value, encode_value


@pytest.fixture
def funded():
    """Alice funded with 1000 coins plus Bob and Carol wallets."""
    alice, bob, carol = Wallet("alice"), Wallet("bob"), Wallet("carol")
    _, utxos = make_genesis_block([(alice.address, 1000)])
    table = UTXOTable(utxos)
    return alice, bob, carol, table


class TestBuildTransfer:
    def test_simple_transfer_valid(self, funded):
        alice, bob, _, table = funded
        inputs = table.select_inputs(alice.address, 100)
        tx = build_transfer(alice, inputs, [(bob.address, 100)])
        tx.verify()
        assert tx.total_input() == 1000
        assert tx.total_output() == 1000  # 100 to Bob + 900 change

    def test_change_goes_back_to_sender(self, funded):
        alice, bob, _, table = funded
        inputs = table.select_inputs(alice.address, 250)
        tx = build_transfer(alice, inputs, [(bob.address, 250)])
        change_outputs = [o for o in tx.outputs if o.account == alice.address]
        assert sum(o.amount for o in change_outputs) == 750

    def test_cannot_overspend(self, funded):
        alice, bob, _, table = funded
        inputs = table.select_inputs(alice.address, 1000)
        with pytest.raises(InvalidTransactionError):
            build_transfer(alice, inputs, [(bob.address, 2000)])

    def test_cannot_spend_foreign_inputs(self, funded):
        alice, bob, _, table = funded
        inputs = table.select_inputs(alice.address, 100)
        with pytest.raises(InvalidTransactionError):
            build_transfer(bob, inputs, [(alice.address, 100)])

    def test_multi_recipient(self, funded):
        alice, bob, carol, table = funded
        inputs = table.select_inputs(alice.address, 300)
        tx = build_transfer(alice, inputs, [(bob.address, 100), (carol.address, 200)])
        tx.verify()
        assert set(tx.recipient_accounts) >= {bob.address, carol.address}


class TestTransactionVerification:
    def test_tampered_output_rejected(self, funded):
        alice, bob, carol, table = funded
        inputs = table.select_inputs(alice.address, 100)
        tx = build_transfer(alice, inputs, [(bob.address, 100)])
        tampered = Transaction(
            inputs=tx.inputs,
            outputs=(TxOutput(account=carol.address, amount=100),)
            + tuple(tx.outputs[1:]),
            nonce=tx.nonce,
            signatures=tx.signatures,
            public_materials=tx.public_materials,
            signer_names=tx.signer_names,
        )
        assert not tampered.is_valid()

    def test_missing_signature_rejected(self, funded):
        alice, bob, _, table = funded
        inputs = table.select_inputs(alice.address, 100)
        tx = build_transfer(alice, inputs, [(bob.address, 100)])
        stripped = Transaction(inputs=tx.inputs, outputs=tx.outputs, nonce=tx.nonce)
        assert not stripped.is_valid()

    def test_wrong_wallet_signature_rejected(self, funded):
        alice, bob, _, table = funded
        inputs = table.select_inputs(alice.address, 100)
        tx = build_transfer(alice, inputs, [(bob.address, 100)])
        # Replace Alice's signature with Bob's signature over the same body.
        tx.signatures[alice.address] = bob.sign(tx.body_payload())
        tx.public_materials[alice.address] = bob.public_material()
        tx.signer_names[alice.address] = bob.name
        assert not tx.is_valid()

    def test_empty_transactions_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(inputs=(), outputs=(TxOutput("a", 1),)).verify_shape()
        with pytest.raises(InvalidTransactionError):
            Transaction(
                inputs=(TxInput("x:0", "a", 1),), outputs=()
            ).verify_shape()

    def test_duplicate_inputs_rejected(self):
        tx_input = TxInput("x:0", "a", 5)
        tx = Transaction(inputs=(tx_input, tx_input), outputs=(TxOutput("b", 5),))
        with pytest.raises(InvalidTransactionError):
            tx.verify_shape()

    def test_non_positive_amounts_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(
                inputs=(TxInput("x:0", "a", 5),), outputs=(TxOutput("b", 0),)
            ).verify_shape()

    def test_ecdsa_wallet_roundtrip(self):
        alice = Wallet("alice-ecdsa", use_ecdsa=True, seed=1)
        bob = Wallet("bob-ecdsa", use_ecdsa=True, seed=2)
        _, utxos = make_genesis_block([(alice.address, 50)])
        table = UTXOTable(utxos)
        inputs = table.select_inputs(alice.address, 50)
        tx = build_transfer(alice, inputs, [(bob.address, 50)])
        tx.verify()


class TestTransactionProperties:
    def test_tx_id_changes_with_nonce(self, funded):
        alice, bob, _, table = funded
        inputs = table.select_inputs(alice.address, 100)
        tx1 = build_transfer(alice, inputs, [(bob.address, 100)], nonce=0)
        tx2 = build_transfer(alice, inputs, [(bob.address, 100)], nonce=1)
        assert tx1.tx_id != tx2.tx_id

    def test_conflicts_with(self, funded):
        alice, bob, carol, table = funded
        inputs = table.select_inputs(alice.address, 100)
        tx1 = build_transfer(alice, inputs, [(bob.address, 100)], nonce=0)
        tx2 = build_transfer(alice, inputs, [(carol.address, 100)], nonce=1)
        assert tx1.conflicts_with(tx2)
        assert tx2.conflicts_with(tx1)
        assert not tx1.conflicts_with(tx1_copy := tx1) or tx1.conflicts_with(tx1_copy)

    def test_wire_size_floor(self, funded):
        alice, bob, _, table = funded
        inputs = table.select_inputs(alice.address, 100)
        tx = build_transfer(alice, inputs, [(bob.address, 100)])
        assert tx.wire_size() >= PAPER_TX_SIZE_BYTES

    def test_source_accounts_order(self, funded):
        alice, _, _, table = funded
        inputs = table.select_inputs(alice.address, 100)
        tx = build_transfer(alice, inputs, [(alice.address, 100)])
        assert tx.source_accounts == (alice.address,)


class TestMultiSourceTransfer:
    def test_two_sources(self):
        alice = Wallet("ms-alice")
        bob = Wallet("ms-bob")
        carol = Wallet("ms-carol")
        _, utxos = make_genesis_block([(alice.address, 60), (bob.address, 40)])
        table = UTXOTable(utxos)
        tx = build_multi_source_transfer(
            [
                (alice, table.select_inputs(alice.address, 60)),
                (bob, table.select_inputs(bob.address, 40)),
            ],
            recipients=[(carol.address, 100)],
        )
        tx.verify()
        assert set(tx.source_accounts) == {alice.address, bob.address}

    def test_requires_a_source(self):
        with pytest.raises(InvalidTransactionError):
            build_multi_source_transfer([], recipients=[("x", 1)])

    def test_rejects_foreign_inputs(self):
        alice = Wallet("ms2-alice")
        bob = Wallet("ms2-bob")
        _, utxos = make_genesis_block([(alice.address, 60)])
        table = UTXOTable(utxos)
        with pytest.raises(InvalidTransactionError):
            build_multi_source_transfer(
                [(bob, table.select_inputs(alice.address, 60))],
                recipients=[("x", 10)],
            )


class TestWallet:
    def test_unique_addresses(self):
        assert Wallet("w1").address != Wallet("w2").address

    def test_repr_contains_address(self):
        wallet = Wallet("w3")
        assert wallet.address in repr(wallet)

    def test_auto_named_wallets_differ(self):
        assert Wallet().address != Wallet().address


class TestIdIsTheSignedDigest:
    """A builder signs under the memoised id; nothing a verifier sees moves."""

    def _single(self, use_ecdsa):
        alice = Wallet("pin-alice", use_ecdsa=use_ecdsa, seed=1)
        bob = Wallet("pin-bob", use_ecdsa=use_ecdsa, seed=2)
        _, utxos = make_genesis_block([(alice.address, 100), (bob.address, 60)])
        table = UTXOTable(utxos)
        inputs = table.select_inputs(alice.address, 100)
        return build_transfer(alice, inputs, [(bob.address, 70)], nonce=3), [alice]

    def _multi(self, use_ecdsa):
        alice = Wallet("pin-alice", use_ecdsa=use_ecdsa, seed=1)
        bob = Wallet("pin-bob", use_ecdsa=use_ecdsa, seed=2)
        _, utxos = make_genesis_block([(alice.address, 100), (bob.address, 60)])
        table = UTXOTable(utxos)
        tx = build_multi_source_transfer(
            [
                (alice, table.select_inputs(alice.address, 100)),
                (bob, table.select_inputs(bob.address, 60)),
            ],
            [("acct-carol", 150)],
            nonce=4,
        )
        return tx, [alice, bob]

    @pytest.mark.parametrize("use_ecdsa", [False, True], ids=["hmac", "ecdsa"])
    @pytest.mark.parametrize("shape", ["_single", "_multi"])
    def test_id_equals_each_signed_digest(self, shape, use_ecdsa):
        tx, wallets = getattr(self, shape)(use_ecdsa)
        body = tx.body_payload()
        for wallet in wallets:
            signed = tx.signatures[wallet.address]
            assert tx.tx_id == hash_payload(body) == signed.payload_hash
            assert signed == wallet.sign(body)
        tx.verify()

    def test_pinned_hmac_tag(self):
        """Id and tag as computed before transfers were signed under their id."""
        tx, (alice,) = self._single(use_ecdsa=False)
        assert tx.tx_id == (
            "fb19134ccc7f4421fe007e11391d2c8935eac070e08d34e163f793b1c380be10"
        )
        assert tx.signatures[alice.address].signature.hex() == (
            "825f163334c5dfd9861f4bd9255c9dbb1762a06e23fff077010bb8e0323fd26a"
        )


class TestSignatureAgainstTheId:
    """A signature is checked against ``tx_id``, the digest of the body it
    sits on: every way of pairing it with another body still fails."""

    def _pair(self, funded):
        alice, bob, carol, table = funded
        inputs = table.select_inputs(alice.address, 100)
        tx = build_transfer(alice, inputs, [(bob.address, 100)], nonce=0)
        other = build_transfer(alice, inputs, [(carol.address, 100)], nonce=1)
        return alice, carol, tx, other

    def test_a_signature_under_another_bodys_digest(self, funded):
        alice, _, tx, other = self._pair(funded)
        tx.signatures[alice.address] = other.signatures[alice.address]
        with pytest.raises(InvalidTransactionError, match="invalid signature"):
            tx.verify_signatures()

    def test_another_bodys_tag_claiming_this_digest(self, funded):
        alice, _, tx, other = self._pair(funded)
        tx.signatures[alice.address] = dataclasses.replace(
            other.signatures[alice.address], payload_hash=tx.tx_id
        )
        with pytest.raises(InvalidTransactionError, match="invalid signature"):
            tx.verify_signatures()

    @pytest.mark.parametrize("scheme", ["simulated-hmac-v2", EcdsaSigner.scheme_name])
    def test_a_scheme_name_mismatch(self, funded, scheme):
        alice, _, tx, _ = self._pair(funded)
        signed = tx.signatures[alice.address]
        forged = dataclasses.replace(signed, scheme=scheme)
        material = tx.public_materials[alice.address]
        assert verify_wallet_signature(tx.tx_id, signed, material)
        assert not verify_wallet_signature(tx.tx_id, forged, material)
        tx.signatures[alice.address] = forged
        assert not tx.is_valid()

    def test_a_replaced_output_after_signing(self, funded):
        _, carol, tx, _ = self._pair(funded)
        tx.verify_signatures()
        changed = dataclasses.replace(
            tx, outputs=(TxOutput(account=carol.address, amount=100),) + tx.outputs[1:]
        )
        assert changed.signatures is tx.signatures
        assert changed.tx_id != tx.tx_id
        with pytest.raises(InvalidTransactionError, match="invalid signature"):
            changed.verify_signatures()

    def test_a_wire_payload_with_a_forged_tx_id(self, funded):
        """The wire carries no id a decoder reads: a payload naming the id
        its signatures were made under decodes to the id of its own body."""
        alice, _, tx, other = self._pair(funded)
        payload = {
            "tx_id": tx.tx_id,
            "inputs": list(other.inputs),
            "outputs": list(other.outputs),
            "nonce": other.nonce,
            "signatures": dict(tx.signatures),
            "public_materials": dict(tx.public_materials),
            "signer_names": dict(tx.signer_names),
        }
        decoded = decode_value(b"OS11;transaction" + encode_value(payload))
        assert decoded.tx_id == other.tx_id != tx.tx_id
        assert not decoded.is_valid()
        with pytest.raises(InvalidTransactionError, match="invalid signature"):
            decoded.verify_signatures()
