"""Blocks and the genesis block.

A block batches the transactions decided by one consensus instance.  Because
ZLB solves *Set* Byzantine Consensus, a decided "block" at index ``k`` is the
union of several proposals; the block records which proposers contributed.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import LedgerError
from repro.common.types import ReplicaId
from repro.crypto.hashing import hash_payload
from repro.crypto.merkle import merkle_root
from repro.ledger.transaction import Transaction, TxOutput
from repro.ledger.utxo import UTXO


@dataclasses.dataclass
class Block:
    """A block of transactions at a given consensus index.

    Attributes:
        index: the consensus instance that decided this block.
        parent_hash: hash of the previous block on this replica's branch.
        transactions: the decided, validated transactions.
        proposers: replicas whose proposals contributed transactions.
        timestamp: simulated time at which the block was decided.
    """

    index: int
    parent_hash: str
    transactions: Tuple[Transaction, ...]
    proposers: Tuple[ReplicaId, ...] = ()
    timestamp: float = 0.0

    def header_payload(self) -> Dict[str, object]:
        """The hashed block header."""
        return {
            "index": self.index,
            "parent_hash": self.parent_hash,
            "merkle_root": self.merkle_root,
            "proposers": list(self.proposers),
            "tx_count": len(self.transactions),
        }

    @property
    def merkle_root(self) -> str:
        """Merkle root over the transaction ids (computed once per block).

        Blocks are content-immutable after construction — ``transactions`` is
        a tuple and no caller mutates a decided block — so the root is cached
        in the instance dict, keeping repeated header serialisation and
        cross-replica conflict checks off the hashing path.
        """
        cached = self.__dict__.get("_merkle_root")
        if cached is None:
            cached = merkle_root([tx.tx_id for tx in self.transactions])
            self.__dict__["_merkle_root"] = cached
        return cached

    @property
    def block_hash(self) -> str:
        """Content-derived block identifier (computed once per block)."""
        cached = self.__dict__.get("_block_hash")
        if cached is None:
            cached = hash_payload(self.header_payload())
            self.__dict__["_block_hash"] = cached
        return cached

    def to_payload(self) -> Dict[str, object]:
        return self.header_payload()

    def tx_ids(self) -> List[str]:
        """Transaction ids in block order."""
        return [tx.tx_id for tx in self.transactions]

    def conflicts_with(self, other: "Block") -> bool:
        """True when the blocks sit at the same index but differ in content."""
        return self.index == other.index and self.block_hash != other.block_hash

    def total_output_value(self) -> int:
        """Sum of every output in the block — the 'gain' G of Appendix B."""
        return sum(tx.total_output() for tx in self.transactions)


GENESIS_PARENT = "0" * 64


def make_genesis_block(
    allocations: Sequence[Tuple[str, int]],
    timestamp: float = 0.0,
    prefix: Optional[Tuple[Block, Sequence[UTXO]]] = None,
) -> Tuple[Block, List[UTXO]]:
    """Create the genesis block assigning initial balances.

    Returns the block and the initial UTXO set (one UTXO per allocation).  The
    genesis transactions have no inputs; they are exempt from the normal
    verification path and only ever applied at chain construction.

    ``prefix`` is a genesis ``(block, utxos)`` built over a leading run of
    ``allocations``.  Allocation ``i`` has nonce ``i``, so its transactions
    and UTXOs are exactly the first ones here: they are reused, checked
    against the allocations without hashing, and only the allocations after
    them are hashed.
    """
    transactions: List[Transaction] = []
    utxos: List[UTXO] = []
    if prefix is not None:
        prefix_block, prefix_utxos = prefix
        if len(prefix_utxos) > len(allocations):
            raise LedgerError("genesis prefix is longer than the allocations")
        for utxo, (account, amount) in zip(prefix_utxos, allocations):
            if utxo.account != account or utxo.amount != amount:
                raise LedgerError(
                    f"genesis prefix output {utxo.utxo_id} does not match its allocation"
                )
        transactions.extend(prefix_block.transactions)
        utxos.extend(prefix_utxos)
    for index in range(len(utxos), len(allocations)):
        account, amount = allocations[index]
        # The nonce is the allocation index so that identical (account, amount)
        # allocations still yield distinct transactions and distinct UTXO ids.
        transaction = Transaction(
            inputs=(),
            outputs=(TxOutput(account=account, amount=amount),),
            nonce=index,
        )
        transactions.append(transaction)
        utxos.append(
            UTXO(
                utxo_id=transaction.output_utxo_id(0),
                account=account,
                amount=amount,
            )
        )
    block = Block(
        index=0,
        parent_hash=GENESIS_PARENT,
        transactions=tuple(transactions),
        proposers=(),
        timestamp=timestamp,
    )
    return block, utxos
