"""The Blockchain Manager (BM) — §4.2 of the paper.

The BM sits between the payment application and ASMR:

* it batches client transactions from the mempool into proposals;
* it validates proposals *statefully* against its branch's UTXO view before
  consensus accepts them (inputs must exist, no intra-proposal double spends);
* it turns SBC decisions into blocks appended to the local branch, dropping —
  and counting — anything that does not execute;
* when the confirmation phase reveals a conflicting decision, it merges the
  other branch's transactions (Alg. 2) instead of discarding them, funding
  *genuinely* double-spent inputs from the deposit and rejecting phantom ones;
* when the membership change excludes deceitful replicas, it slashes their
  deposit accounts (the application punishment of Alg. 1 line 38).

Rejections at every stage are tallied in :class:`LedgerStats` and mirrored to
``ledger.*`` counters when a probe is attached, so experiment reports can
show how much adversarial traffic the execution layer filtered.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import InvalidTransactionError
from repro.common.types import ReplicaId
from repro.consensus.sbc import SBCDecision
from repro.ledger.block import Block
from repro.ledger.mempool import Mempool
from repro.ledger.merge import AppendReport, BlockchainRecord, MergeOutcome
from repro.ledger.transaction import Transaction
from repro.ledger.utxo import UTXO


def replica_deposit_account(replica: ReplicaId) -> str:
    """Deterministic address of the on-chain deposit account of a replica."""
    return f"deposit-replica-{replica}"


def _flatten_payloads(payloads: Iterable[Any]) -> List[Transaction]:
    """Flatten decided/remote proposal payloads into a deduplicated
    transaction list, skipping anything that is not a list of transactions
    (adopted-unvalidated slots may carry arbitrary shapes).  A transaction
    costs a type test and a dict lookup, no call."""
    transactions: Dict[str, Transaction] = {}
    for payload in payloads:
        if not isinstance(payload, list):
            continue
        for transaction in payload:
            if type(transaction) is Transaction and transaction.tx_id not in transactions:
                transactions[transaction.tx_id] = transaction
    return list(transactions.values())


@dataclasses.dataclass
class LedgerStats:
    """Counters of everything the execution-validated pipeline filtered."""

    proposals_validated: int = 0
    proposals_rejected: int = 0
    commit_duplicate: int = 0
    commit_invalid: int = 0
    commit_conflicting: int = 0
    commit_phantom: int = 0
    merge_rejected: int = 0
    merge_phantom_inputs: int = 0

    @property
    def commit_rejected(self) -> int:
        """Transactions dropped on the commit path (duplicates excluded)."""
        return self.commit_invalid + self.commit_conflicting + self.commit_phantom


class BlockchainManager:
    """One replica's view of the chain plus its mempool and deposit accounting."""

    def __init__(
        self,
        replica_id: ReplicaId,
        genesis: Tuple[Block, Sequence[UTXO]],
        initial_deposit: int = 0,
        batch_size: int = 10_000,
    ):
        self.replica_id = replica_id
        self.batch_size = batch_size
        self.record = BlockchainRecord(
            initial_deposit=initial_deposit, genesis=genesis
        )
        self.mempool = Mempool()
        #: Blocks appended from local SBC decisions, indexed by ASMR instance.
        self.blocks_by_instance: Dict[int, Block] = {}
        #: Merge outcomes from reconciliations, in arrival order.
        self.merge_outcomes: List[MergeOutcome] = []
        self.transactions_committed = 0
        self.stats = LedgerStats()
        #: The owning replica's probe, attached at bind time (None =
        #: uninstrumented): mirrors the stats counters.
        self.probe = None
        #: Screening report of the most recent commit (observability).
        self.last_append_report: Optional[AppendReport] = None

    # -- client-facing --------------------------------------------------------------

    def submit_transaction(self, transaction: Transaction) -> bool:
        """Accept a client transaction into the mempool (§4.2: permissionless).

        The verdict is kept on the transaction, so validating a proposal
        that carries it does not verify it again."""
        if not transaction.is_valid_cached():
            return False
        if self.record.contains_tx(transaction.tx_id):
            return False
        return self.mempool.add(transaction)

    def submit_transactions(self, transactions: Iterable[Transaction]) -> int:
        """Submit many transactions; returns the number accepted."""
        return sum(1 for tx in transactions if self.submit_transaction(tx))

    # -- ASMR hooks --------------------------------------------------------------------

    def next_proposal(self, instance: int) -> List[Transaction]:
        """Batch of pending transactions to propose for ``instance``."""
        return self.mempool.peek_batch(self.batch_size)

    def validate_proposal(self, proposer: ReplicaId, payload: Any) -> bool:
        """SBC proposal validator — structural *and* execution validation.

        A proposal is acceptable when it is a list of signed, well-formed
        transactions that applies cleanly to this replica's branch UTXO view:
        every input must reference a spendable output (or one created earlier
        in the same proposal) and no two transactions may consume the same
        output.  Transactions already committed on this branch are tolerated
        as no-ops: a slow proposer re-broadcasting a decided batch is not
        equivocation, and the commit path deduplicates them anyway.
        """
        if not isinstance(payload, list):
            self._reject_proposal()
            return False
        known_tx_ids = self.record.known_tx_ids
        apply = self.record.utxos.overlay().apply_transaction
        for item in payload:
            if type(item) is not Transaction:
                self._reject_proposal()
                return False
            if item.tx_id in known_tx_ids:
                continue
            if not item.is_valid_cached():
                self._reject_proposal()
                return False
            try:
                apply(item)
            except InvalidTransactionError:
                # An input is not spendable on this branch, or its recorded
                # account/amount disagree with the branch's UTXO table.
                self._reject_proposal()
                return False
        self.stats.proposals_validated += 1
        return True

    def _reject_proposal(self) -> None:
        self.stats.proposals_rejected += 1
        if self.probe is not None:
            self.probe.count("ledger.proposals_rejected")

    def commit_decision(self, instance: int, decision: SBCDecision) -> Block:
        """Turn an SBC decision into the next block on the local branch.

        The decided union is screened against the branch state; signatures are
        not re-verified when every decided payload passed
        :meth:`validate_proposal` at this replica.  A decision carrying
        *unvalidated* slots (payloads the local validator rejected but the
        committee adopted — see :attr:`SBCDecision.unvalidated_slots`) loses
        that invariant, so the whole batch is re-screened in full.  In every
        case duplicates, intra-block conflicts and non-executable
        transactions are dropped and counted.
        """
        report = AppendReport()
        block = self.record.append_block(
            _flatten_payloads(decision.decided_payloads()),
            proposers=tuple(decision.included_slots()),
            timestamp=decision.decided_at,
            assume_verified=not decision.unvalidated_slots,
            report=report,
        )
        self._count_commit_report(report)
        self.last_append_report = report
        self.blocks_by_instance[instance] = block
        self.mempool.remove_decided(block.tx_ids())
        self.transactions_committed += len(block.transactions)
        return block

    def _count_commit_report(self, report: AppendReport) -> None:
        stats = self.stats
        stats.commit_duplicate += report.duplicate
        stats.commit_invalid += report.invalid
        stats.commit_conflicting += report.conflicting
        stats.commit_phantom += report.phantom
        if self.probe is not None and report.rejected:
            for reason, count in (
                ("invalid", report.invalid),
                ("conflicting", report.conflicting),
                ("phantom", report.phantom),
            ):
                if count:
                    self.probe.count("ledger.commit_rejected", count, reason=reason)

    def merge_remote_decision(
        self, instance: int, remote_proposals: Dict[ReplicaId, Any]
    ) -> MergeOutcome:
        """Reconciliation: merge a conflicting decision's transactions (Alg. 2).

        Inputs genuinely spent on our branch are funded from the deposit (the
        coalition's realised gain), phantom inputs are rejected outright.  The
        remote branch forked from ours at the parent of our block for
        ``instance``: ``record.branch_balance_deltas(block, that height)``
        reports its divergent balances to whoever asks, the merge does not.
        """
        conflicting_block = Block(
            index=instance + 1,
            parent_hash="remote-branch",
            transactions=tuple(_flatten_payloads(remote_proposals.values())),
        )
        outcome = self.record.merge_block(conflicting_block)
        self.merge_outcomes.append(outcome)
        self.stats.merge_rejected += outcome.rejected_transactions
        self.stats.merge_phantom_inputs += outcome.phantom_inputs
        probe = self.probe
        if probe is not None:
            if outcome.rejected_transactions:
                probe.count("ledger.merge_rejected", outcome.rejected_transactions)
            if outcome.phantom_inputs:
                probe.count("ledger.merge_phantom_inputs", outcome.phantom_inputs)
            if outcome.realized_gain:
                # Per-merge realised gain can be negative (RefundInputs
                # recoveries), so the cumulative net is a gauge, not a
                # monotonic counter.
                probe.gauge(
                    "ledger.realized_gain",
                    self.record.realized_attack_gain,
                    replica=self.replica_id,
                )
        self.mempool.remove_decided(conflicting_block.tx_ids())
        self.transactions_committed += outcome.merged_transactions
        return outcome

    def punish_replicas(self, replicas: Iterable[ReplicaId]) -> int:
        """Slash the deposit accounts of excluded replicas; returns amount seized."""
        total = 0
        for replica in replicas:
            total += self.record.punish_account(replica_deposit_account(replica))
        if self.probe is not None and total:
            self.probe.count("ledger.seized_deposit", total)
        return total

    # -- observability -------------------------------------------------------------------------

    def chain_height(self) -> int:
        """Current block height of the local branch."""
        return self.record.height

    def conserved_total(self) -> int:
        """UTXO supply plus the deposit pool — the conserved quantity.

        Punishment and merge refunds only move value between the two pots;
        the sum may shrink (burns) but must never exceed the genesis
        baseline.  The invariant monitors check exactly this.
        """
        return self.record.utxos.total_supply() + self.record.deposit

    def realized_attack_gain(self) -> int:
        """Net value the coalition actually realised against this branch."""
        return self.record.realized_attack_gain

    def summary(self) -> Dict[str, int]:
        """Counts describing the local chain state."""
        summary = self.record.summary()
        summary["mempool"] = len(self.mempool)
        summary["committed_transactions"] = self.transactions_committed
        summary["merges"] = len(self.merge_outcomes)
        summary["proposals_rejected"] = self.stats.proposals_rejected
        summary["commit_rejected"] = self.stats.commit_rejected
        summary["merge_rejected"] = self.stats.merge_rejected
        return summary
