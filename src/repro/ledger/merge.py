"""The blockchain record ``Omega``: execution-validated commits and Algorithm 2.

When a fork is detected, ZLB does not discard the conflicting blocks: it merges
them.  The blockchain record keeps, next to the chain itself, a *deposit*
funded by the consensus replicas, the set of inputs whose funding had to come
from that deposit, and the set of punished account addresses.  Merging a
conflicting block walks its transactions: inputs that are still spendable are
consumed normally, inputs that were already consumed on the local branch are
refunded from the deposit (Alg. 2 lines 20–22), and outputs reaching punished
accounts are confiscated.

Two properties make the record *execution-validated*:

* **Stateful screening.**  Appends filter each block through a copy-on-write
  :class:`~repro.ledger.utxo.UTXOView` of the branch state (duplicates,
  structurally invalid transactions, intra-block double spends and unknown
  inputs are dropped and counted), and merges reject *phantom* transactions —
  ones whose inputs never existed anywhere in this record's history.  A
  phantom input is not a double spend: refunding it from the deposit would let
  an attacker mint claims against coins that were never at risk, so it is
  rejected instead of funded.
* **Fork awareness.**  Every state mutation is journalled (created ids,
  consumed UTXOs), so :meth:`view_at` can reconstruct the UTXO view at any
  block height as a cheap overlay, and :meth:`branch_balance_deltas` can
  replay a remote branch on a view based at the fork point, before or after
  its merge, for whoever wants the branch's divergent balances.
  Reconciliation itself only merges, and accounts the coalition's *actually
  realised* gain — the value of inputs genuinely spent on both branches —
  which is what the zero-loss analysis of Appendix B must compare against the
  seized deposits.

Merged transactions are fully verified — shape, signatures and execution
semantics.  A conflicting branch may have been decided by a colluding quorum
alone, so its content cannot be assumed to have passed any honest proposal
validator; signature verification is memoised per transaction object
(:meth:`~repro.ledger.transaction.Transaction.is_valid_cached`), so the common
case — transactions already verified at submission or proposal time — pays a
fingerprint comparison, not a re-verification.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import InvalidTransactionError, LedgerError
from repro.ledger.block import Block, make_genesis_block
from repro.ledger.transaction import Transaction, TxInput
from repro.ledger.utxo import UTXO, UTXOTable, UTXOView


@dataclasses.dataclass
class AppendReport:
    """Outcome of screening a batch of transactions for append.

    ``accepted`` apply cleanly, in order, to the branch view; the counters
    classify everything dropped.
    """

    accepted: List[Transaction] = dataclasses.field(default_factory=list)
    #: Already part of the record (benign redelivery, not an attack).
    duplicate: int = 0
    #: Structurally invalid or failing signature verification.
    invalid: int = 0
    #: Inputs spent earlier on this branch or by an earlier transaction of the
    #: same batch — a double-spend attempt.
    conflicting: int = 0
    #: Inputs that never existed in this record's history.
    phantom: int = 0

    @property
    def rejected(self) -> int:
        """Transactions dropped for any reason other than duplication."""
        return self.invalid + self.conflicting + self.phantom


@dataclasses.dataclass
class MergeOutcome:
    """Summary of one call to :meth:`BlockchainRecord.merge_block`."""

    merged_transactions: int = 0
    already_known: int = 0
    refunded_inputs: int = 0
    refunded_amount: int = 0
    confiscated_outputs: int = 0
    deposit_after: int = 0
    #: Transactions rejected by execution validation (shape or phantom inputs).
    rejected_transactions: int = 0
    #: Inputs referencing UTXOs that never existed in this record's history.
    phantom_inputs: int = 0
    #: Net value the coalition actually realised through this merge: deposit
    #: refunds for genuinely double-spent inputs, minus refunds recovered when
    #: a previously-funded input became spendable again (Alg. 2 lines 24–28).
    realized_gain: int = 0


class BlockchainRecord:
    """The blockchain state ``Omega`` of Algorithm 2.

    Attributes:
        deposit: coins currently held in the shared slashing deposit.
        inputs_deposit: inputs refunded from the deposit, pending reimbursement
            (Alg. 2 ``inputs-deposit``).
        punished_accounts: account addresses belonging to excluded deceitful
            replicas; their future outputs are confiscated into the deposit.
        realized_attack_gain: cumulative value the coalition actually realised
            against this record (deposit-funded double spends, net of refunds).
        seized_total: cumulative value confiscated from punished accounts.
    """

    def __init__(
        self,
        genesis_allocations: Iterable[Tuple[str, int]] = (),
        initial_deposit: int = 0,
        genesis: Optional[Tuple[Block, Sequence[UTXO]]] = None,
    ):
        if genesis is not None:
            # A prebuilt genesis (block, utxos) lets a deployment hash the
            # genesis transactions once and share them across every replica's
            # record instead of rebuilding per replica.
            genesis_block, genesis_utxos = genesis
        else:
            genesis_block, genesis_utxos = make_genesis_block(list(genesis_allocations))
        self.blocks: List[Block] = [genesis_block]
        self.utxos = UTXOTable(genesis_utxos)
        self.known_tx_ids: Set[str] = {tx.tx_id for tx in genesis_block.transactions}
        self.deposit = initial_deposit
        self.inputs_deposit: Dict[str, TxInput] = {}
        self.punished_accounts: Set[str] = set()
        # Blocks observed on conflicting branches, kept for audit purposes.
        self.merged_blocks: List[Block] = []
        #: Every UTXO ever consumed on this record (spent, merged or seized),
        #: by id — distinguishes a genuine double spend (input consumed here)
        #: from a phantom input (never existed).
        self._consumed: Dict[str, UTXO] = {}
        #: Journal of state mutations as (created_ids, consumed_utxos) deltas;
        #: ``_height_seq[h]`` is the journal length right after block ``h``
        #: committed, so :meth:`view_at` can rewind to any height.
        self._journal: List[Tuple[Tuple[str, ...], Tuple[UTXO, ...]]] = []
        self._height_seq: Dict[int, int] = {genesis_block.index: 0}
        self.realized_attack_gain = 0
        self.seized_total = 0

    # -- plain chain growth ----------------------------------------------------

    @property
    def height(self) -> int:
        """Index of the latest appended block."""
        return self.blocks[-1].index

    @property
    def head_hash(self) -> str:
        """Hash of the latest appended block."""
        return self.blocks[-1].block_hash

    def contains_tx(self, tx_id: str) -> bool:
        """True when a transaction is already part of the record."""
        return tx_id in self.known_tx_ids

    def _record_delta(
        self, created_ids: Sequence[str], consumed: Iterable[UTXO]
    ) -> None:
        """Journal one mutation, cancelling transient outputs (created and
        consumed within the same delta) so rewinding never sees them.  A
        mutation that created and consumed nothing leaves no entry for
        :meth:`view_at` to walk."""
        consumed = list(consumed)
        if not consumed and not created_ids:
            return
        for utxo in consumed:
            self._consumed[utxo.utxo_id] = utxo
        transient = set(created_ids) & {utxo.utxo_id for utxo in consumed}
        durable_created = tuple(uid for uid in created_ids if uid not in transient)
        durable_consumed = tuple(
            utxo for utxo in consumed if utxo.utxo_id not in transient
        )
        self._journal.append((durable_created, durable_consumed))

    # -- validation ------------------------------------------------------------

    def filter_for_append(
        self, transactions: Iterable[Transaction], assume_verified: bool = False
    ) -> AppendReport:
        """Screen ``transactions`` against the branch state before appending.

        SBC-Validity only requires decided transactions to be valid and
        non-conflicting, so offending ones are dropped deterministically and
        classified in the returned :class:`AppendReport`.  ``assume_verified``
        skips the (expensive) signature re-verification for transactions that
        already passed it upstream — the deployment pipeline verifies at
        mempool submission and again at proposal validation, so the commit
        path only re-checks shape and execution semantics.
        """
        report = AppendReport()
        view = self.utxos.overlay()
        batch_tx_ids: Set[str] = set()
        batch_spent: Set[str] = set()
        for transaction in transactions:
            if (
                transaction.tx_id in self.known_tx_ids
                or transaction.tx_id in batch_tx_ids
            ):
                report.duplicate += 1
                continue
            try:
                transaction.verify_shape()
            except InvalidTransactionError:
                report.invalid += 1
                continue
            if not assume_verified and not transaction.is_valid_cached():
                report.invalid += 1
                continue
            missing = [
                tx_input.utxo_id
                for tx_input in transaction.inputs
                if not view.contains(tx_input.utxo_id)
            ]
            if missing:
                # A missing input that was consumed — on this branch or by an
                # earlier transaction of this batch — is a double-spend
                # attempt; one that never existed anywhere is phantom.
                if any(
                    uid not in self._consumed and uid not in batch_spent
                    for uid in missing
                ):
                    report.phantom += 1
                else:
                    report.conflicting += 1
                continue
            try:
                # Applying to the view both reserves the consumed inputs (so
                # later conflicting transactions are dropped) and exposes the
                # freshly created outputs to later transactions in the batch.
                view.apply_transaction(transaction)
            except InvalidTransactionError:
                # Input exists but its account/amount disagree with the table.
                report.invalid += 1
                continue
            report.accepted.append(transaction)
            batch_tx_ids.add(transaction.tx_id)
            batch_spent.update(tx_input.utxo_id for tx_input in transaction.inputs)
        return report

    def append_block(
        self,
        transactions: Iterable[Transaction],
        proposers: Tuple[int, ...] = (),
        timestamp: float = 0.0,
        validate: bool = True,
        assume_verified: bool = False,
    ) -> Block:
        """Append a new block on the local branch, applying its transactions.

        With ``validate=False`` the caller vouches that the transactions were
        already screened with :meth:`filter_for_append` against the current
        state; the batch is then applied without re-checking.
        """
        txs = list(transactions)
        if validate:
            txs = self.filter_for_append(txs, assume_verified=assume_verified).accepted
        block = Block(
            index=self.height + 1,
            parent_hash=self.head_hash,
            transactions=tuple(txs),
            proposers=proposers,
            timestamp=timestamp,
        )
        created_ids: List[str] = []
        consumed: List[UTXO] = []
        for transaction in txs:
            consumed_tx, created_tx = self.utxos.apply_validated(transaction)
            consumed.extend(consumed_tx)
            created_ids.extend(utxo.utxo_id for utxo in created_tx)
            self.known_tx_ids.add(transaction.tx_id)
        self.blocks.append(block)
        consumed.extend(self._confiscate_punished_outputs(txs))
        self._record_delta(created_ids, consumed)
        self._height_seq[block.index] = len(self._journal)
        return block

    # -- fork-aware views -------------------------------------------------------

    def view_at(self, height: int) -> UTXOView:
        """Copy-on-write view of the UTXO state right after block ``height``.

        Rewinds the journal on top of the live table — O(mutations since
        ``height``), independent of table size.
        """
        seq = self._height_seq.get(height)
        if seq is None:
            raise LedgerError(f"no block at height {height}")
        view = self.utxos.overlay()
        for created_ids, consumed in reversed(self._journal[seq:]):
            for utxo_id in created_ids:
                if view.contains(utxo_id):
                    view.remove(utxo_id)
            for utxo in consumed:
                if not view.contains(utxo.utxo_id):
                    view.add(utxo)
        return view

    def branch_balance_deltas(
        self, block: Block, fork_height: Optional[int]
    ) -> Dict[str, int]:
        """Per-account balance change of a conflicting ``block`` relative to
        the state at ``fork_height`` — the divergent balances its branch
        created.  ``{}`` when the fork point is unknown (``None``): without
        one there is no base to diverge from.

        A read-only query: the block is replayed, best effort, on an overlay
        of :meth:`view_at` (a transaction that is neither part of the record
        nor valid, or whose inputs the branch cannot spend, is skipped), so
        it answers the same before and after :meth:`merge_block` merged it.
        """
        if fork_height is None:
            return {}
        branch = self.view_at(max(0, min(fork_height, self.height))).overlay()
        known_tx_ids = self.known_tx_ids
        for transaction in block.transactions:
            if transaction.tx_id not in known_tx_ids and not transaction.is_valid_cached():
                continue
            if branch.can_apply(transaction):
                try:
                    branch.apply_transaction(transaction)
                except (InvalidTransactionError, LedgerError):
                    pass
        return branch.balance_deltas()

    # -- deposits and punishment ------------------------------------------------

    def fund_deposit(self, amount: int) -> None:
        """Add ``amount`` coins to the shared deposit (replica staking)."""
        if amount < 0:
            raise LedgerError("deposit funding must be non-negative")
        self.deposit += amount

    def punish_account(self, account: str) -> int:
        """Confiscate the account's unspent outputs into the deposit.

        Called by the application layer when the membership change excludes a
        deceitful replica (Alg. 1 line 38).  Returns the confiscated amount.
        """
        self.punished_accounts.add(account)
        confiscated = 0
        seized: List[UTXO] = []
        for utxo in list(self.utxos.utxos_of(account)):
            self.utxos.remove(utxo.utxo_id)
            seized.append(utxo)
            confiscated += utxo.amount
        self._record_delta((), seized)
        self.deposit += confiscated
        self.seized_total += confiscated
        return confiscated

    def _confiscate_punished_outputs(
        self, transactions: Iterable[Transaction]
    ) -> List[UTXO]:
        """Confiscate freshly created outputs addressed to punished accounts;
        returns the seized UTXOs (for the caller's journal entry)."""
        seized: List[UTXO] = []
        for transaction in transactions:
            for index, tx_output in enumerate(transaction.outputs):
                if tx_output.account not in self.punished_accounts:
                    continue
                utxo_id = transaction.output_utxo_id(index)
                if self.utxos.contains(utxo_id):
                    seized.append(self.utxos.remove(utxo_id))
                    self.deposit += tx_output.amount
                    self.seized_total += tx_output.amount
        return seized

    # -- Algorithm 2: merging a conflicting block --------------------------------

    def merge_block(self, block: Block) -> MergeOutcome:
        """Merge a conflicting block received from another branch (Alg. 2).

        Every transaction not already known is screened (shape, phantom
        inputs) and committed through ``CommitTxMerge``: spendable inputs are
        consumed normally; inputs that were genuinely consumed on the local
        branch are refunded from the deposit — that refund is the coalition's
        *realised gain*.  Transactions whose inputs never existed in this
        record's history are rejected: funding them would mint deposit claims
        for coins that were never at risk.  Outputs addressed to punished
        accounts are confiscated.  Finally, ``RefundInputs`` re-fills the
        deposit with any previously-refunded input that has become spendable
        again.
        """
        outcome = MergeOutcome()
        created_ids: List[str] = []
        consumed: List[UTXO] = []
        # Inputs consumed earlier *within this merge* (the journal's consumed
        # index is only written at the end): a later transaction of the same
        # block spending one of them is a genuine double spend to refund, not
        # a phantom to reject.
        merge_spent: Set[str] = set()
        # The loop below runs once per conflicting transaction on the merge
        # bench's hottest path; bind the per-iteration lookups once.
        known_tx_ids = self.known_tx_ids
        utxos_contains = self.utxos.contains
        consumed_index = self._consumed
        punished = self.punished_accounts
        for transaction in block.transactions:
            if transaction.tx_id in known_tx_ids:
                outcome.already_known += 1
                continue
            if not transaction.is_valid_cached():
                # Full verification, signatures included: the remote branch
                # may have been decided by a colluding quorum alone, so its
                # content never passed any honest proposal validator.  The
                # check is memoised per transaction object, so the common
                # case (transactions verified at proposal time) costs a
                # fingerprint comparison.
                outcome.rejected_transactions += 1
                continue
            phantom = 0
            for tx_input in transaction.inputs:
                uid = tx_input.utxo_id
                if (
                    not utxos_contains(uid)
                    and uid not in consumed_index
                    and uid not in merge_spent
                ):
                    phantom += 1
            if phantom:
                outcome.rejected_transactions += 1
                outcome.phantom_inputs += phantom
                continue
            before = len(consumed)
            self._commit_tx_merge(transaction, outcome, created_ids, consumed)
            outcome.merged_transactions += 1
            if punished:
                for index, tx_output in enumerate(transaction.outputs):
                    if tx_output.account in punished:
                        utxo_id = transaction.output_utxo_id(index)
                        if utxos_contains(utxo_id):
                            consumed.append(self.utxos.remove(utxo_id))
                            self.deposit += tx_output.amount
                            self.seized_total += tx_output.amount
                            outcome.confiscated_outputs += 1
            if len(consumed) > before:
                merge_spent.update(utxo.utxo_id for utxo in consumed[before:])
        self._refund_inputs(outcome, consumed)
        self.merged_blocks.append(block)
        self._record_delta(created_ids, consumed)
        outcome.deposit_after = self.deposit
        return outcome

    def _commit_tx_merge(
        self,
        transaction: Transaction,
        outcome: MergeOutcome,
        created_ids: List[str],
        consumed: List[UTXO],
    ) -> None:
        """``CommitTxMerge`` (Alg. 2 lines 17–23)."""
        utxos = self.utxos
        utxos_contains = utxos.contains
        inputs_deposit = self.inputs_deposit
        for tx_input in transaction.inputs:
            uid = tx_input.utxo_id
            if utxos_contains(uid):
                consumed.append(utxos.remove(uid))
            else:
                # The input was genuinely spent on our branch (phantom inputs
                # were screened out above): fund the conflict from the deposit
                # so no honest recipient loses coins.  This is the coalition
                # actually realising a double spend.
                inputs_deposit[uid] = tx_input
                amount = tx_input.amount
                self.deposit -= amount
                outcome.refunded_inputs += 1
                outcome.refunded_amount += amount
                outcome.realized_gain += amount
                self.realized_attack_gain += amount
        for index, tx_output in enumerate(transaction.outputs):
            utxo_id = transaction.output_utxo_id(index)
            # Outputs have positive amounts by shape validation, so the
            # membership test here licenses the unchecked insert.
            if not utxos_contains(utxo_id):
                utxos._insert(
                    UTXO(
                        utxo_id=utxo_id,
                        account=tx_output.account,
                        amount=tx_output.amount,
                    )
                )
                created_ids.append(utxo_id)
        self.known_tx_ids.add(transaction.tx_id)

    def _refund_inputs(self, outcome: MergeOutcome, consumed: List[UTXO]) -> None:
        """``RefundInputs`` (Alg. 2 lines 24–28)."""
        utxos_contains = self.utxos.contains
        for utxo_id, tx_input in list(self.inputs_deposit.items()):
            if utxos_contains(utxo_id):
                consumed.append(self.utxos.remove(utxo_id))
                self.deposit += tx_input.amount
                outcome.realized_gain -= tx_input.amount
                self.realized_attack_gain -= tx_input.amount
                del self.inputs_deposit[utxo_id]

    # -- observability ------------------------------------------------------------

    def deposit_shortfall(self) -> int:
        """How far the deposit has gone negative (0 when fully funded).

        A positive shortfall means honest participants would have lost coins;
        the zero-loss analysis (Appendix B) chooses deposits so this stays 0.
        """
        return max(0, -self.deposit)

    def summary(self) -> Dict[str, int]:
        """Counts used by tests and experiment reports."""
        return {
            "height": self.height,
            "transactions": len(self.known_tx_ids),
            "utxos": len(self.utxos),
            "deposit": self.deposit,
            "pending_deposit_inputs": len(self.inputs_deposit),
            "punished_accounts": len(self.punished_accounts),
            "merged_blocks": len(self.merged_blocks),
            "realized_attack_gain": self.realized_attack_gain,
            "seized_total": self.seized_total,
        }
