"""The mempool: pending client transactions awaiting inclusion in a proposal.

Replicas batch pending requests into proposals of ``batch_size`` transactions
(the paper uses 10,000 per proposal).  The mempool deduplicates by transaction
id, preserves arrival order and drops transactions once they are decided.

Occupancy is tracked incrementally — ``len()`` in transactions and
:attr:`Mempool.pending_bytes` in estimated wire bytes — and the optional
:attr:`Mempool.hook` fires after every mutation so occupancy gauges can
mirror the pool without polling it.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Callable, Iterable, List, Optional

from repro.ledger.transaction import Transaction


class Mempool:
    """An ordered, deduplicating pool of pending transactions."""

    def __init__(self, max_size: Optional[int] = None):
        self._pending: "OrderedDict[str, Transaction]" = OrderedDict()
        self._pending_bytes = 0
        self.max_size = max_size
        #: Transactions rejected because the pool was full.
        self.dropped = 0
        #: Transactions rejected because their id was already pending.
        self.duplicates = 0
        #: Called with the pool after every mutation, or None (the default):
        #: the owning replica's occupancy gauges.
        self.hook: Optional[Callable[["Mempool"], None]] = None

    @property
    def pending_bytes(self) -> int:
        """Estimated wire size of every pending transaction."""
        return self._pending_bytes

    def add(self, transaction: Transaction) -> bool:
        """Add a transaction; returns False when duplicate or pool is full."""
        if transaction.tx_id in self._pending:
            self.duplicates += 1
            return False
        if self.max_size is not None and len(self._pending) >= self.max_size:
            self.dropped += 1
            return False
        self._pending[transaction.tx_id] = transaction
        self._pending_bytes += transaction.wire_size()
        if self.hook is not None:
            self.hook(self)
        return True

    def add_all(self, transactions: Iterable[Transaction]) -> int:
        """Add many transactions; returns how many were accepted."""
        return sum(1 for tx in transactions if self.add(tx))

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._pending

    def peek_batch(self, batch_size: int) -> List[Transaction]:
        """Return (without removing) the next ``batch_size`` transactions."""
        if batch_size <= 0:
            return []
        return list(islice(self._pending.values(), batch_size))

    def take_batch(self, batch_size: int) -> List[Transaction]:
        """Remove and return the next ``batch_size`` transactions.

        The batch list is built once (by :meth:`peek_batch`); removal walks
        the same list.
        """
        batch = self.peek_batch(batch_size)
        for transaction in batch:
            del self._pending[transaction.tx_id]
            self._pending_bytes -= transaction.wire_size()
        if batch and self.hook is not None:
            self.hook(self)
        return batch

    def remove_decided(self, tx_ids: Iterable[str]) -> int:
        """Drop transactions that have been decided elsewhere; returns count."""
        pending = self._pending
        removed = 0
        for tx_id in tx_ids:
            if tx_id in pending:
                self._pending_bytes -= pending.pop(tx_id).wire_size()
                removed += 1
        if removed and self.hook is not None:
            self.hook(self)
        return removed

    def clear(self) -> None:
        """Empty the pool."""
        if not self._pending:
            return
        self._pending.clear()
        self._pending_bytes = 0
        if self.hook is not None:
            self.hook(self)
