"""The ZLB replica: ASMR wired to the Blockchain Manager and payment rules."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import ProtocolConfig
from repro.common.types import FaultKind, ReplicaId
from repro.consensus.sbc import SBCDecision
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import Signer
from repro.ledger.transaction import Transaction
from repro.obs.monitors import MonitorSet
from repro.smr.asmr import ASMRReplica
from repro.smr.pool import CandidatePool
from repro.zlb.blockchain_manager import BlockchainManager


class ZLBReplica(ASMRReplica):
    """One ZLB node (Fig. 1): payment system + Blockchain Manager + ASMR."""

    def __init__(
        self,
        replica_id: ReplicaId,
        committee: Sequence[ReplicaId],
        signer: Signer,
        registry: KeyRegistry,
        blockchain: BlockchainManager,
        pool: Optional[CandidatePool] = None,
        config: Optional[ProtocolConfig] = None,
        fault: FaultKind = FaultKind.HONEST,
        standby: bool = False,
        finalization_blockdepth: int = 5,
        monitors: Optional[MonitorSet] = None,
    ):
        self.blockchain = blockchain
        #: Admission times of pending transactions, recorded only while the
        #: probe has metrics: until the commit (``zlb.commit_latency_s``) and,
        #: in ``_unproposed``, until the first proposal batch of this replica
        #: that carries one (``zlb.phase.mempool_s``).
        self._admitted_at: Optional[Dict[str, float]] = None
        self._unproposed: Optional[Dict[str, float]] = None
        super().__init__(
            replica_id=replica_id,
            committee=committee,
            signer=signer,
            registry=registry,
            pool=pool,
            config=config,
            fault=fault,
            proposal_factory=self._make_proposal,
            proposal_validator=self._validate_proposal,
            on_commit=self._commit,
            on_merge=self._merge,
            on_exclude=self._exclude,
            standby=standby,
            finalization_blockdepth=finalization_blockdepth,
            monitors=monitors,
        )

    # -- lifecycle ------------------------------------------------------------------

    def bind(self, transport) -> None:
        super().bind(transport)
        probe = self.probe
        self.blockchain.probe = probe
        if probe is not None:
            # Mempool occupancy gauges, updated by the pool itself on every
            # mutation.
            replica = self.replica_id

            def _update(pool) -> None:
                probe.gauge("mempool.pending", len(pool), replica=replica)
                probe.gauge("mempool.pending_bytes", pool.pending_bytes, replica=replica)

            self.blockchain.mempool.hook = _update
            _update(self.blockchain.mempool)
            if probe.metrics is not None:
                self._admitted_at = {}
                self._unproposed = {}
                self._phase_marks = {}

    # -- ASMR hooks ---------------------------------------------------------------

    def _make_proposal(self, instance: int) -> List[Transaction]:
        batch = self.blockchain.next_proposal(instance)
        unproposed = self._unproposed
        if unproposed:
            now = self.now
            for tx in batch:
                tx_id = tx.tx_id
                if tx_id in unproposed:
                    self.probe.observe("zlb.phase.mempool_s", now - unproposed.pop(tx_id))
        return batch

    def _validate_proposal(self, proposer: ReplicaId, payload: Any) -> bool:
        return self.blockchain.validate_proposal(proposer, payload)

    def _commit(self, instance: int, decision: SBCDecision) -> None:
        blockchain = self.blockchain
        block = blockchain.commit_decision(instance, decision)
        now = self.now
        report = blockchain.last_append_report
        self.monitors.on_commit(
            self.replica_id,
            instance,
            report.invalid,
            report.phantom,
            blockchain.conserved_total(),
            now,
        )
        probe = self.probe
        if probe is None:
            return
        admitted = self._admitted_at
        if admitted is not None:
            unproposed = self._unproposed
            for tx in block.transactions:
                tx_id = tx.tx_id
                admitted_at = admitted.pop(tx_id, None)
                if admitted_at is not None:
                    probe.observe("zlb.commit_latency_s", now - admitted_at)
                    if tx_id in unproposed:
                        # Committed from another replica's proposal.
                        del unproposed[tx_id]
        marks = self._phase_marks
        if marks is not None and instance in marks:
            # Fig. 2's phases of an instance started here, from its first
            # start: RBC deliveries, binary decisions, local append.
            start, rbc_end, bin_end = marks.pop(instance)
            bin_end = max(bin_end, rbc_end)
            probe.observe("zlb.phase.rbc_s", rbc_end - start)
            probe.observe("zlb.phase.binary_s", bin_end - rbc_end)
            probe.observe("zlb.phase.commit_s", max(now, bin_end) - bin_end)
        probe.count("zlb.blocks_committed")
        probe.count("zlb.transactions_committed", len(block.transactions))
        probe.event(
            "zlb.commit",
            self.replica_id,
            now,
            instance=instance,
            txs=len(block.transactions),
            height=block.index,
        )

    def _merge(self, instance: int, remote_proposals: Dict[ReplicaId, Any]) -> None:
        outcome = self.blockchain.merge_remote_decision(instance, remote_proposals)
        now = self.now
        self.monitors.on_merge(
            self.replica_id, instance, self.blockchain.conserved_total(), now
        )
        probe = self.probe
        if probe is None:
            return
        probe.count("zlb.merges")
        probe.count("zlb.merged_transactions", outcome.merged_transactions)
        probe.gauge("zlb.recovery.merged_s", now)
        probe.event(
            "zlb.merge",
            self.replica_id,
            now,
            instance=instance,
            merged=outcome.merged_transactions,
            refunded=outcome.refunded_amount,
        )

    def _exclude(self, excluded: List[ReplicaId]) -> None:
        self.blockchain.punish_replicas(excluded)
        self.monitors.on_punish(
            self.replica_id, self.blockchain.conserved_total(), self.now
        )

    # -- client API ------------------------------------------------------------------

    def submit_transaction(self, transaction: Transaction) -> bool:
        """Client entry point: enqueue a payment request at this replica."""
        accepted = self.blockchain.submit_transaction(transaction)
        admitted = self._admitted_at
        if accepted and admitted is not None:
            tx_id = transaction.tx_id
            admitted[tx_id] = self._unproposed[tx_id] = self.now
        return accepted

    def submit_transactions(self, transactions) -> int:
        """Enqueue many payment requests; returns how many were accepted."""
        admitted = self._admitted_at
        if admitted is None:
            return self.blockchain.submit_transactions(transactions)
        unproposed = self._unproposed
        accepted = 0
        now = self.now
        for transaction in transactions:
            if self.blockchain.submit_transaction(transaction):
                tx_id = transaction.tx_id
                admitted[tx_id] = unproposed[tx_id] = now
                accepted += 1
        return accepted

    # -- observability -------------------------------------------------------------------

    def chain_summary(self) -> Dict[str, int]:
        """Summary of the local chain (height, transactions, deposit, merges)."""
        return self.blockchain.summary()
