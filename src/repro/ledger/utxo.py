"""The in-memory UTXO table and its copy-on-write views.

§4.2.2: "the balance of each account in the system is stored in the form of a
UTXO table ... Each replica can typically access the UTXO table directly in
memory for faster execution of transactions."  The table maps UTXO identifiers
to :class:`UTXO` records and supports the operations the Blockchain Manager
needs: applying a non-conflicting transaction, answering whether a given input
is currently spendable (used during merges), and spawning cheap
:class:`UTXOView` overlays so proposal validation and per-branch fork state
never copy the whole table.

Account indices and balances are maintained incrementally: the table keeps an
ordered per-account id set (O(1) insert and remove) and memoised per-account
balances plus the total supply, so ``balance()`` and ``total_supply()`` are
dictionary lookups instead of scans.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.common.errors import InvalidTransactionError, LedgerError
from repro.ledger.transaction import Transaction, TxInput


@dataclasses.dataclass(frozen=True)
class UTXO:
    """An unspent transaction output."""

    utxo_id: str
    account: str
    amount: int

    def as_input(self) -> TxInput:
        """Return a :class:`TxInput` consuming this output."""
        return TxInput(utxo_id=self.utxo_id, account=self.account, amount=self.amount)

    def to_payload(self) -> Dict[str, object]:
        return {
            "utxo_id": self.utxo_id,
            "account": self.account,
            "amount": self.amount,
        }


class UTXOTable:
    """Mutable mapping of unspent outputs with incremental account indexing."""

    __slots__ = ("_by_id", "_by_account", "_balance", "_supply")

    def __init__(self, initial: Iterable[UTXO] = ()):
        self._by_id: Dict[str, UTXO] = {}
        # Ordered id set per account (dict keys preserve insertion order and
        # delete in O(1), unlike the list.remove scan this replaces).
        self._by_account: Dict[str, Dict[str, None]] = {}
        self._balance: Dict[str, int] = {}
        self._supply = 0
        for utxo in initial:
            self.add(utxo)

    # -- basic operations ----------------------------------------------------

    def add(self, utxo: UTXO) -> None:
        """Insert a new unspent output; duplicates are rejected."""
        if utxo.utxo_id in self._by_id:
            raise LedgerError(f"UTXO {utxo.utxo_id} already present")
        if utxo.amount <= 0:
            raise LedgerError(f"UTXO {utxo.utxo_id} must have positive amount")
        self._insert(utxo)

    def _insert(self, utxo: UTXO) -> None:
        """Unchecked insert; the caller guarantees the id is absent and the
        amount positive (the merge commit path has just tested both)."""
        self._by_id[utxo.utxo_id] = utxo
        self._by_account.setdefault(utxo.account, {})[utxo.utxo_id] = None
        self._balance[utxo.account] = self._balance.get(utxo.account, 0) + utxo.amount
        self._supply += utxo.amount

    def remove(self, utxo_id: str) -> UTXO:
        """Consume (remove) the UTXO with the given id."""
        utxo = self._by_id.pop(utxo_id, None)
        if utxo is None:
            raise LedgerError(f"UTXO {utxo_id} is not spendable")
        account_ids = self._by_account.get(utxo.account)
        if account_ids is not None:
            account_ids.pop(utxo_id, None)
            if not account_ids:
                del self._by_account[utxo.account]
        remaining = self._balance.get(utxo.account, 0) - utxo.amount
        if remaining:
            self._balance[utxo.account] = remaining
        else:
            self._balance.pop(utxo.account, None)
        self._supply -= utxo.amount
        return utxo

    def contains(self, utxo_id: str) -> bool:
        """True when the output is currently unspent."""
        return utxo_id in self._by_id

    def get(self, utxo_id: str) -> Optional[UTXO]:
        """Return the UTXO or None when already spent/unknown."""
        return self._by_id.get(utxo_id)

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[UTXO]:
        return iter(self._by_id.values())

    # -- account views -------------------------------------------------------

    def balance(self, account: str) -> int:
        """Total unspent value held by ``account`` (memoised)."""
        return self._balance.get(account, 0)

    def balances(self) -> Dict[str, int]:
        """Per-account balances (a copy of the memoised index)."""
        return dict(self._balance)

    def utxos_of(self, account: str) -> List[UTXO]:
        """All unspent outputs of ``account`` (insertion order)."""
        return [self._by_id[utxo_id] for utxo_id in self._by_account.get(account, ())]

    def select_inputs(self, account: str, amount: int) -> List[TxInput]:
        """Greedily select inputs of ``account`` covering at least ``amount``.

        Raises :class:`InvalidTransactionError` when the balance is too low.
        The selection consumes as many (largest-first) UTXOs as needed, which
        keeps the table compact as the paper recommends.
        """
        if amount <= 0:
            raise InvalidTransactionError("amount must be positive")
        if self.balance(account) < amount:
            raise InvalidTransactionError(
                f"account {account} holds {self.balance(account)}, "
                f"cannot cover {amount}"
            )
        candidates = sorted(
            self.utxos_of(account), key=lambda utxo: utxo.amount, reverse=True
        )
        selected: List[TxInput] = []
        covered = 0
        # The balance pre-check guarantees the loop reaches ``amount``.
        for utxo in candidates:
            selected.append(utxo.as_input())
            covered += utxo.amount
            if covered >= amount:
                break
        return selected

    # -- transaction application ---------------------------------------------

    def can_apply(self, transaction: Transaction) -> bool:
        """True when every input of ``transaction`` is currently spendable."""
        return all(self.contains(tx_input.utxo_id) for tx_input in transaction.inputs)

    def apply_transaction(
        self, transaction: Transaction, spent: Optional[Dict[str, UTXO]] = None
    ) -> List[UTXO]:
        """Atomically consume the inputs and create the outputs; returns the
        created outputs and adds the consumed ones, by id, to ``spent``.

        Raises :class:`InvalidTransactionError` when an input is repeated,
        not spendable or disagrees with the table on account or amount, and
        :class:`LedgerError` for an output that is present or not positive.
        Everything is checked before anything moves, so on failure the table
        is left untouched; the moves are written in place, in this frame.
        """
        by_id = self._by_id
        consumed: Dict[str, UTXO] = {}
        for tx_input in transaction.inputs:
            utxo_id = tx_input.utxo_id
            if utxo_id in consumed:
                raise InvalidTransactionError(f"input {utxo_id} is spent twice")
            try:
                utxo = by_id[utxo_id]
            except KeyError:
                raise InvalidTransactionError(f"input {utxo_id} is not spendable") from None
            if utxo.account != tx_input.account or utxo.amount != tx_input.amount:
                raise InvalidTransactionError(
                    f"input {utxo_id} does not match the UTXO table"
                )
            consumed[utxo_id] = utxo
        tx_id = transaction.tx_id
        created: List[UTXO] = []
        index = 0
        for tx_output in transaction.outputs:
            utxo_id = "%s:%d" % (tx_id, index)
            if utxo_id in by_id or tx_output.amount <= 0:
                raise LedgerError(f"UTXO {utxo_id} already present or not positive")
            created += (UTXO(utxo_id, tx_output.account, tx_output.amount),)
            index += 1
        by_account, balance = self._by_account, self._balance
        for utxo_id in consumed:
            utxo = consumed[utxo_id]
            account = utxo.account
            del by_id[utxo_id]
            account_ids = by_account[account]
            del account_ids[utxo_id]
            if not account_ids:
                del by_account[account]
            remaining = balance[account] - utxo.amount
            if remaining:
                balance[account] = remaining
            else:
                del balance[account]
            self._supply -= utxo.amount
        for utxo in created:
            utxo_id, account = utxo.utxo_id, utxo.account
            by_id[utxo_id] = utxo
            if account in by_account:
                by_account[account][utxo_id] = None
                balance[account] += utxo.amount
            else:
                by_account[account] = {utxo_id: None}
                balance[account] = utxo.amount
            self._supply += utxo.amount
        if spent is not None:
            spent |= consumed
        return created

    def total_supply(self) -> int:
        """Sum of every unspent output — conserved by valid transactions."""
        return self._supply

    def overlay(self) -> "UTXOView":
        """Return a copy-on-write view of the table (O(1))."""
        return UTXOView(self)

    def snapshot(self) -> "UTXOTable":
        """Return an independent full copy of the table.

        Prefer :meth:`overlay` for validation scratch state — a snapshot
        copies every entry, an overlay only records its own changes.
        """
        return UTXOTable(initial=list(self._by_id.values()))

    def to_payload(self) -> List[Dict[str, object]]:
        return [utxo.to_payload() for utxo in sorted(self._by_id.values(), key=lambda u: u.utxo_id)]


class UTXOView:
    """A copy-on-write overlay over a base :class:`UTXOTable` or another view.

    The view records only its own additions and removals; reads fall through
    to the base.  It backs the places the ledger pipeline needs scratch or
    divergent state without paying for a full copy:

    * stateful proposal validation (does this batch apply to my branch?),
    * ``BlockchainRecord.filter_for_append``, which runs the commit's one
      screening loop on a throwaway view instead of the live table, and
    * a remote branch's divergent balances, replayed from the fork point
      when somebody asks (``BlockchainRecord.branch_balance_deltas``).

    Views are cheap to create and discard; a commit never goes through one.
    """

    __slots__ = ("_base", "_added", "_removed", "_balance_delta")

    def __init__(self, base):
        self._base = base
        self._added: Dict[str, UTXO] = {}
        self._removed: Set[str] = set()
        self._balance_delta: Dict[str, int] = {}

    # -- reads ---------------------------------------------------------------

    def contains(self, utxo_id: str) -> bool:
        if utxo_id in self._removed:
            return False
        return utxo_id in self._added or self._base.contains(utxo_id)

    def get(self, utxo_id: str) -> Optional[UTXO]:
        if utxo_id in self._removed:
            return None
        utxo = self._added.get(utxo_id)
        if utxo is not None:
            return utxo
        return self._base.get(utxo_id)

    def balance(self, account: str) -> int:
        """Balance of ``account`` in this view (base plus local delta)."""
        return self._base.balance(account) + self._balance_delta.get(account, 0)

    def __len__(self) -> int:
        return len(self._base) + len(self._added) - len(self._removed)

    # -- writes --------------------------------------------------------------

    def _credit(self, account: str, amount: int) -> None:
        self._balance_delta[account] = self._balance_delta.get(account, 0) + amount

    def add(self, utxo: UTXO) -> None:
        """Insert a new unspent output into the view; duplicates rejected."""
        if self.contains(utxo.utxo_id):
            raise LedgerError(f"UTXO {utxo.utxo_id} already present")
        if utxo.amount <= 0:
            raise LedgerError(f"UTXO {utxo.utxo_id} must have positive amount")
        # Re-adding an id this view removed from the base (the merge refund
        # path) only needs the removal marker cleared; shadowing it in
        # ``_added`` as well would survive a later ``remove``.
        if utxo.utxo_id in self._removed and self._base.contains(utxo.utxo_id):
            self._removed.discard(utxo.utxo_id)
        else:
            self._added[utxo.utxo_id] = utxo
        self._credit(utxo.account, utxo.amount)

    def remove(self, utxo_id: str) -> UTXO:
        """Consume (remove) the UTXO with the given id from the view."""
        utxo = self.get(utxo_id)
        if utxo is None:
            raise LedgerError(f"UTXO {utxo_id} is not spendable")
        if utxo_id in self._added:
            del self._added[utxo_id]
        else:
            self._removed.add(utxo_id)
        self._credit(utxo.account, -utxo.amount)
        return utxo

    # -- transaction application ---------------------------------------------

    def can_apply(self, transaction: Transaction) -> bool:
        """True when every input of ``transaction`` is spendable in the view."""
        return all(self.contains(tx_input.utxo_id) for tx_input in transaction.inputs)

    def apply_transaction(
        self, transaction: Transaction, spent: Optional[Dict[str, UTXO]] = None
    ) -> List[UTXO]:
        """Consume the inputs and create the outputs within the view.

        Same checks, same return and same ``spent`` as
        :meth:`UTXOTable.apply_transaction`, in one frame, and on failure
        the view is left untouched.  An output id names its own transfer, so
        it is present only once the transfer was applied, and then its
        inputs are spent: the input check has refused it already.
        """
        added, removed, base = self._added, self._removed, self._base
        consumed: Dict[str, UTXO] = {}
        for tx_input in transaction.inputs:
            utxo_id = tx_input.utxo_id
            if utxo_id in consumed:
                raise InvalidTransactionError(f"input {utxo_id} is spent twice")
            if utxo_id in removed:
                utxo = None
            elif utxo_id in added:
                utxo = added[utxo_id]
            else:
                utxo = base.get(utxo_id)
            if utxo is None:
                raise InvalidTransactionError(f"input {utxo_id} is not spendable")
            if utxo.account != tx_input.account or utxo.amount != tx_input.amount:
                raise InvalidTransactionError(
                    f"input {utxo_id} does not match the UTXO table"
                )
            consumed[utxo_id] = utxo
        tx_id = transaction.tx_id
        created: List[UTXO] = []
        index = 0
        for tx_output in transaction.outputs:
            if tx_output.amount <= 0:
                raise LedgerError(f"output {index} of {tx_id} must have positive amount")
            created += (UTXO("%s:%d" % (tx_id, index), tx_output.account, tx_output.amount),)
            index += 1
        delta = self._balance_delta
        for utxo_id in consumed:
            utxo = consumed[utxo_id]
            account = utxo.account
            if utxo_id in added:
                del added[utxo_id]
            else:
                removed.add(utxo_id)
            delta[account] = (delta[account] if account in delta else 0) - utxo.amount
        for utxo in created:
            added[utxo.utxo_id] = utxo
            account = utxo.account
            delta[account] = (delta[account] if account in delta else 0) + utxo.amount
        if spent is not None:
            spent |= consumed
        return created

    def overlay(self) -> "UTXOView":
        """A copy-on-write view stacked on this view."""
        return UTXOView(self)

    # -- introspection -------------------------------------------------------

    def balance_deltas(self) -> Dict[str, int]:
        """Per-account balance change of this view relative to its base
        (accounts whose balance did not move are left out)."""
        return {account: delta for account, delta in self._balance_delta.items() if delta}
