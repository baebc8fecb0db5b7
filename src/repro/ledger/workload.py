"""Workload generators: streams of payment transactions for experiments.

Two generators cover the paper's needs:

* :class:`TransferWorkload` — a population of funded accounts issuing random
  transfers (the throughput workload of §5.1, 400-byte Bitcoin transactions).
* :func:`double_spend_pair` — two conflicting transactions spending the same
  UTXO towards different recipients (the double-spend scenario of Fig. 1 and
  the block-merge workload of Table 1).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.ledger.block import make_genesis_block
from repro.ledger.transaction import Transaction, build_transfer
from repro.ledger.utxo import UTXOTable
from repro.ledger.wallet import Wallet


#: :class:`TransferWorkload`'s defaults: each account's balance, the value of
#: one transfer, and the most genesis UTXOs an account is funded with.
INITIAL_BALANCE, TRANSFER_AMOUNT, UTXOS_PER_ACCOUNT = 1_000_000, 10, 128


def funded_utxos(
    initial_balance: int = INITIAL_BALANCE,
    transfer_amount: int = TRANSFER_AMOUNT,
    utxos_per_account: int = UTXOS_PER_ACCOUNT,
) -> int:
    """Genesis UTXOs of each :class:`TransferWorkload` account: the number of
    transfers it can pay, one UTXO each."""
    return max(1, min(utxos_per_account, initial_balance // transfer_amount))


class TransferWorkload:
    """A funded population of wallets issuing random unit transfers.

    Each account is funded with many independent UTXOs of exactly
    ``transfer_amount`` coins and every generated transfer consumes one of
    them whole (no change output).  This keeps generated transactions mutually
    independent: a transfer never spends the output of an earlier workload
    transfer, so two branches of a fork never conflict on workload traffic —
    only deliberate double spends (the attack workloads) conflict, matching
    how the paper reasons about the attacker's gain per block.
    """

    def __init__(
        self,
        num_accounts: int = 32,
        initial_balance: int = INITIAL_BALANCE,
        transfer_amount: int = TRANSFER_AMOUNT,
        seed: int = 0,
        use_ecdsa: bool = False,
        utxos_per_account: int = UTXOS_PER_ACCOUNT,
    ):
        if num_accounts < 2:
            raise ConfigurationError("need at least two accounts to transfer")
        if initial_balance <= 0 or transfer_amount <= 0:
            raise ConfigurationError("balances and amounts must be positive")
        if utxos_per_account <= 0:
            raise ConfigurationError("utxos_per_account must be positive")
        self.rng = random.Random(seed)
        self.transfer_amount = transfer_amount
        self.wallets: List[Wallet] = [
            Wallet(name=f"workload-{seed}-{index}", use_ecdsa=use_ecdsa)
            for index in range(num_accounts)
        ]
        self._nonces: Dict[str, int] = {wallet.address: 0 for wallet in self.wallets}
        chunks = funded_utxos(initial_balance, transfer_amount, utxos_per_account)
        genesis_allocations = [
            (wallet.address, transfer_amount)
            for wallet in self.wallets
            for _ in range(chunks)
        ]
        self.genesis_allocations = genesis_allocations
        #: ``(block, utxos)`` over :attr:`genesis_allocations`: the prefix a
        #: deployment's genesis extends with its deposits.
        self.genesis = make_genesis_block(genesis_allocations)
        genesis_utxos = self.genesis[1]
        self.view = UTXOTable(genesis_utxos)
        # Only genesis UTXOs are ever selected, so transfers stay independent.
        self._spendable: Dict[str, List[str]] = {}
        for utxo in genesis_utxos:
            self._spendable.setdefault(utxo.account, []).append(utxo.utxo_id)

    def next_transaction(self) -> Transaction:
        """Generate one valid transfer between two random distinct accounts."""
        funded = [w for w in self.wallets if self._spendable.get(w.address)]
        if not funded:
            raise ConfigurationError("workload exhausted: no account can pay")
        sender = self.rng.choice(funded)
        recipient = sender
        while recipient is sender:
            recipient = self.rng.choice(self.wallets)
        utxo_id = self._spendable[sender.address].pop(0)
        utxo = self.view.get(utxo_id)
        assert utxo is not None
        nonce = self._nonces[sender.address]
        self._nonces[sender.address] += 1
        transaction = build_transfer(
            wallet=sender,
            inputs=[utxo.as_input()],
            recipients=[(recipient.address, self.transfer_amount)],
            nonce=nonce,
        )
        self.view.apply_transaction(transaction)
        return transaction

    def batch(self, count: int) -> List[Transaction]:
        """Generate ``count`` sequential transactions."""
        return [self.next_transaction() for _ in range(count)]


def double_spend_pair(
    amount: int = 1_000_000, seed: int = 0, use_ecdsa: bool = False
) -> Tuple[Transaction, Transaction, List[Tuple[str, int]]]:
    """Return two conflicting transactions spending the same UTXO.

    Mirrors the running example of Fig. 1: Alice holds ``amount`` and tries to
    pay both Bob and Carol with the same coins.  Returns ``(tx_to_bob,
    tx_to_carol, genesis_allocations)`` where the allocations fund Alice.
    """
    alice = Wallet(name=f"alice-{seed}", use_ecdsa=use_ecdsa)
    bob = Wallet(name=f"bob-{seed}", use_ecdsa=use_ecdsa)
    carol = Wallet(name=f"carol-{seed}", use_ecdsa=use_ecdsa)
    allocations = [(alice.address, amount)]
    _, genesis_utxos = make_genesis_block(allocations)
    view = UTXOTable(genesis_utxos)
    inputs = view.select_inputs(alice.address, amount)
    tx_to_bob = build_transfer(
        wallet=alice, inputs=inputs, recipients=[(bob.address, amount)], nonce=0
    )
    tx_to_carol = build_transfer(
        wallet=alice, inputs=inputs, recipients=[(carol.address, amount)], nonce=1
    )
    return tx_to_bob, tx_to_carol, allocations


def conflicting_blocks_workload(
    num_transactions: int, seed: int = 0
) -> Tuple[List[Transaction], List[Transaction], List[Tuple[str, int]]]:
    """Build two lists of pairwise-conflicting transactions (Table 1 workload).

    Every position ``i`` holds two transactions spending the same UTXO towards
    different recipients, so merging the second block after applying the first
    exercises the deposit-refund path for every transaction — the paper's
    worst case "all transactions conflicting".
    """
    rng = random.Random(seed)
    payers = [Wallet(name=f"payer-{seed}-{i}") for i in range(num_transactions)]
    receivers_a = [Wallet(name=f"recv-a-{seed}-{i}") for i in range(num_transactions)]
    receivers_b = [Wallet(name=f"recv-b-{seed}-{i}") for i in range(num_transactions)]
    amount = 100
    allocations = [(payer.address, amount) for payer in payers]
    _, genesis_utxos = make_genesis_block(allocations)
    view = UTXOTable(genesis_utxos)
    branch_a: List[Transaction] = []
    branch_b: List[Transaction] = []
    for index, payer in enumerate(payers):
        inputs = view.select_inputs(payer.address, amount)
        value = rng.randint(1, amount)
        branch_a.append(
            build_transfer(
                wallet=payer,
                inputs=inputs,
                recipients=[(receivers_a[index].address, value)],
                nonce=0,
            )
        )
        branch_b.append(
            build_transfer(
                wallet=payer,
                inputs=inputs,
                recipients=[(receivers_b[index].address, value)],
                nonce=1,
            )
        )
    return branch_a, branch_b, allocations
