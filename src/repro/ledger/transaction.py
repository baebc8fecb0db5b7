"""UTXO transactions.

A transaction consumes unspent outputs (UTXOs) of one or more source accounts
and produces new outputs for recipient accounts (plus change back to the
sources), exactly as described in §4.2.2.  Transactions are signed by every
source account; the paper pads transactions to roughly 400 bytes (the size it
benchmarks with), which :func:`Transaction.wire_size` models.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import InvalidTransactionError
from repro.crypto.hashing import hash_payload
from repro.crypto.signatures import SignedPayload
from repro.ledger.wallet import (
    Wallet,
    address_matches_material,
    verify_wallet_signature,
)

#: The paper benchmarks with ~400-byte Bitcoin transactions (§5).
PAPER_TX_SIZE_BYTES = 400


@dataclasses.dataclass(frozen=True)
class TxInput:
    """A reference to a UTXO being consumed.

    Attributes:
        utxo_id: identifier of the unspent output (``"<tx_id>:<index>"``).
        account: the account that owns the referenced output.
        amount: the value of the referenced output (recorded for convenience
            and for deposit-based refunds during merges, Alg. 2 line 22).
    """

    utxo_id: str
    account: str
    amount: int

    def to_payload(self) -> Dict[str, Any]:
        return {"utxo_id": self.utxo_id, "account": self.account, "amount": self.amount}


@dataclasses.dataclass(frozen=True)
class TxOutput:
    """A newly created output assigning ``amount`` coins to ``account``."""

    account: str
    amount: int

    def to_payload(self) -> Dict[str, Any]:
        return {"account": self.account, "amount": self.amount}


@dataclasses.dataclass
class Transaction:
    """A signed UTXO transaction.

    Attributes:
        inputs: UTXOs consumed, all owned by the signing source accounts.
        outputs: outputs produced (recipients plus change).
        nonce: strictly increasing per-source sequence number (§4.2.4).
        signatures: one signature per distinct source account over the body.
        public_materials: verification material per source account, embedded
            so validation is self-contained (like Bitcoin's scriptSig).
        signer_names: wallet name per source account (used to bind simulated
            addresses to their verification material).
    """

    inputs: Tuple[TxInput, ...]
    outputs: Tuple[TxOutput, ...]
    nonce: int = 0
    signatures: Dict[str, SignedPayload] = dataclasses.field(default_factory=dict)
    public_materials: Dict[str, Any] = dataclasses.field(default_factory=dict)
    signer_names: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Memoised identity/encoding caches.  Inputs, outputs and the nonce are
    #: fixed at construction (signatures are added later but are not part of
    #: the body hash), so these never go stale.  Transactions are re-hashed on
    #: every proposal digest, confirmation cross-check and block commit — the
    #: hottest non-network path of the simulator — which is why both the id
    #: and the canonical encoding are cached.
    _tx_id: Optional[str] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )
    _canonical: Optional[bytes] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )
    #: Memoised full-verification outcome, fingerprinted by the signature and
    #: key-material counts: builders add signatures after construction (cache
    #: miss) and tests strip them (count changes, cache miss again).  Replacing
    #: a signature value in place without changing the counts would evade the
    #: fingerprint — nothing in the simulator mutates signatures that way.
    _valid_cache: Optional[Tuple[int, int, bool]] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    # -- identity ------------------------------------------------------------

    def body_payload(self) -> Dict[str, Any]:
        """The signed portion of the transaction (everything but signatures)."""
        return {
            "inputs": [tx_input.to_payload() for tx_input in self.inputs],
            "outputs": [tx_output.to_payload() for tx_output in self.outputs],
            "nonce": self.nonce,
        }

    @property
    def tx_id(self) -> str:
        """Content-derived transaction identifier (hash of the body)."""
        tx_id = self._tx_id
        if tx_id is None:
            tx_id = hash_payload(self.body_payload())
            self._tx_id = tx_id
        return tx_id

    def to_payload(self) -> Dict[str, Any]:
        return {"tx_id": self.tx_id, "body": self.body_payload()}

    def canonical_bytes_cached(self) -> bytes:
        """Memoised canonical encoding used by :mod:`repro.crypto.hashing`."""
        encoded = self._canonical
        if encoded is None:
            from repro.crypto.hashing import canonical_bytes

            encoded = b"O" + canonical_bytes(self.to_payload())
            self._canonical = encoded
        return encoded

    # -- accessors -----------------------------------------------------------

    @property
    def source_accounts(self) -> Tuple[str, ...]:
        """Distinct source accounts, in first-appearance order."""
        seen: List[str] = []
        for tx_input in self.inputs:
            if tx_input.account not in seen:
                seen.append(tx_input.account)
        return tuple(seen)

    @property
    def recipient_accounts(self) -> Tuple[str, ...]:
        """Distinct recipient accounts, in first-appearance order."""
        seen: List[str] = []
        for tx_output in self.outputs:
            if tx_output.account not in seen:
                seen.append(tx_output.account)
        return tuple(seen)

    def total_input(self) -> int:
        """Sum of the values of all consumed UTXOs."""
        return sum(tx_input.amount for tx_input in self.inputs)

    def total_output(self) -> int:
        """Sum of the values of all produced outputs."""
        return sum(tx_output.amount for tx_output in self.outputs)

    def output_utxo_id(self, index: int) -> str:
        """Identifier of the ``index``-th output once this transaction commits."""
        return f"{self.tx_id}:{index}"

    def wire_size(self) -> int:
        """Approximate serialised size, floored at the paper's 400 bytes."""
        approximate = (
            80 * len(self.inputs) + 48 * len(self.outputs) + 96 * len(self.signatures)
        )
        return max(PAPER_TX_SIZE_BYTES, approximate)

    def conflicts_with(self, other: "Transaction") -> bool:
        """True when the two transactions spend at least one common UTXO."""
        mine = {tx_input.utxo_id for tx_input in self.inputs}
        theirs = {tx_input.utxo_id for tx_input in other.inputs}
        return bool(mine & theirs)

    # -- verification --------------------------------------------------------

    def verify_shape(self) -> None:
        """Check structural validity (no signature or UTXO-existence checks)."""
        if not self.inputs:
            raise InvalidTransactionError("transaction has no inputs")
        if not self.outputs:
            raise InvalidTransactionError("transaction has no outputs")
        if any(tx_output.amount <= 0 for tx_output in self.outputs):
            raise InvalidTransactionError("outputs must carry positive amounts")
        if any(tx_input.amount <= 0 for tx_input in self.inputs):
            raise InvalidTransactionError("inputs must carry positive amounts")
        seen_inputs = {tx_input.utxo_id for tx_input in self.inputs}
        if len(seen_inputs) != len(self.inputs):
            raise InvalidTransactionError("transaction spends the same UTXO twice")
        if self.total_output() > self.total_input():
            raise InvalidTransactionError(
                f"outputs ({self.total_output()}) exceed inputs ({self.total_input()})"
            )

    def verify_signatures(self) -> None:
        """Check that every source account signed the body and owns its address."""
        body = self.body_payload()
        for account in self.source_accounts:
            signed = self.signatures.get(account)
            material = self.public_materials.get(account)
            if signed is None or material is None:
                raise InvalidTransactionError(
                    f"missing signature or key material for source account {account}"
                )
            if not address_matches_material(
                account, signed.scheme, material, self.signer_names.get(account)
            ):
                raise InvalidTransactionError(
                    f"address {account} is not bound to the provided key material"
                )
            if not verify_wallet_signature(body, signed, material):
                raise InvalidTransactionError(
                    f"invalid signature for source account {account}"
                )

    def verify(self) -> None:
        """Full stateless verification: shape plus signatures."""
        self.verify_shape()
        self.verify_signatures()

    def is_valid(self) -> bool:
        """Boolean form of :meth:`verify`."""
        try:
            self.verify()
        except InvalidTransactionError:
            return False
        return True

    def is_valid_cached(self) -> bool:
        """Memoised :meth:`is_valid`.

        The simulator passes transaction objects by reference, so the same
        transaction is re-verified at every replica it reaches (proposal
        validation, commit screening, merges).  Signature verification
        dominates that cost; one global check per object is enough.
        """
        fingerprint = (len(self.signatures), len(self.public_materials))
        cached = self._valid_cache
        if cached is not None and cached[:2] == fingerprint:
            return cached[2]
        ok = self.is_valid()
        self._valid_cache = (fingerprint[0], fingerprint[1], ok)
        return ok


def build_transfer(
    wallet: Wallet,
    inputs: Sequence[TxInput],
    recipients: Sequence[Tuple[str, int]],
    nonce: int = 0,
    change_account: Optional[str] = None,
) -> Transaction:
    """Build and sign a single-source transfer.

    Consumes ``inputs`` (which must all belong to ``wallet``) and pays each
    ``(account, amount)`` in ``recipients``; any remaining value goes back to
    ``change_account`` (defaults to the wallet's own address).
    """
    for tx_input in inputs:
        if tx_input.account != wallet.address:
            raise InvalidTransactionError(
                f"input {tx_input.utxo_id} belongs to {tx_input.account}, "
                f"not to {wallet.address}"
            )
    total_in = sum(tx_input.amount for tx_input in inputs)
    total_out = sum(amount for _, amount in recipients)
    if total_out > total_in:
        raise InvalidTransactionError(
            f"cannot send {total_out} from inputs worth {total_in}"
        )
    outputs = [TxOutput(account=account, amount=amount) for account, amount in recipients]
    change = total_in - total_out
    if change > 0:
        outputs.append(
            TxOutput(account=change_account or wallet.address, amount=change)
        )
    transaction = Transaction(
        inputs=tuple(inputs), outputs=tuple(outputs), nonce=nonce
    )
    # The id is the body's canonical digest: sign under it, encoding once.
    signed = wallet.sign(transaction.body_payload(), transaction.tx_id)
    transaction.signatures[wallet.address] = signed
    transaction.public_materials[wallet.address] = wallet.public_material()
    transaction.signer_names[wallet.address] = wallet.name
    return transaction


def build_multi_source_transfer(
    wallets_and_inputs: Sequence[Tuple[Wallet, Sequence[TxInput]]],
    recipients: Sequence[Tuple[str, int]],
    nonce: int = 0,
) -> Transaction:
    """Build a transfer consuming inputs from several source wallets.

    Change (if any) is returned to the first wallet.
    """
    if not wallets_and_inputs:
        raise InvalidTransactionError("at least one source wallet is required")
    all_inputs: List[TxInput] = []
    for wallet, inputs in wallets_and_inputs:
        for tx_input in inputs:
            if tx_input.account != wallet.address:
                raise InvalidTransactionError(
                    f"input {tx_input.utxo_id} does not belong to wallet {wallet.name}"
                )
            all_inputs.append(tx_input)
    total_in = sum(tx_input.amount for tx_input in all_inputs)
    total_out = sum(amount for _, amount in recipients)
    if total_out > total_in:
        raise InvalidTransactionError("recipients exceed available inputs")
    outputs = [TxOutput(account=account, amount=amount) for account, amount in recipients]
    change = total_in - total_out
    if change > 0:
        outputs.append(
            TxOutput(account=wallets_and_inputs[0][0].address, amount=change)
        )
    transaction = Transaction(
        inputs=tuple(all_inputs), outputs=tuple(outputs), nonce=nonce
    )
    body, tx_id = transaction.body_payload(), transaction.tx_id
    for wallet, _ in wallets_and_inputs:
        transaction.signatures[wallet.address] = wallet.sign(body, tx_id)
        transaction.public_materials[wallet.address] = wallet.public_material()
        transaction.signer_names[wallet.address] = wallet.name
    return transaction
