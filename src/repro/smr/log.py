"""The decided history of one ASMR replica (:class:`DecisionLog`): what it
decided, the order it committed it in, and what it serves to peers.

**Ordered commit.**  A decision reaches ``on_commit`` one way only: in
instance order, once every instance below it is committed
(``next_commit``), whether the local SBC decided it or a peer's record
supplied it.  A merge for instance ``k`` waits for ``k``'s commit, so it
lands on a branch that holds ``k``'s block.

**Retirement.**  A replica holds a window of instances, not its history.  On
deciding instance ``k`` it retires every instance ``i <= k - m`` (``m``, the
finalization blockdepth of §5 / Appendix B) that it decided, saw no
conflicting digest for, and got a matching CONFIRM for from every other member
of ``i``'s committee: nobody can still need a FETCH/VALUE or a vote from it.
The instance's Set Byzantine Consensus detaches — broadcasts, binary
instances, votes and its 2n + 1 routes go — and what it sends afterwards falls
to the lazy-start fallback, which drops and counts it.  The record and the
decision stay: digest, bitmask, proposals and both certificate maps, which the
chain, catch-up and a PULL read, and the justification narrowed to the votes a
late conflicting CONFIRM can still be cross-checked against
(:func:`~repro.consensus.proofs.accountable_votes`).  The per-vote memos age
with the same horizon (:mod:`repro.common.memo`).  Retirement sends nothing,
so it moves no schedule.

**Gap fill.**  A replica that decides an instance past an undecided one,
holds a CONFIRM for an undecided instance from a member of an epoch older
than its own record of it (an instance it aborted and restarted, or has not
restarted yet: nobody runs it again), or whose SBC still lacks the proposal
of a slot decided 1 ``PROPOSAL_WAIT_S`` after a CONFIRM for the instance
came (that slot's reliable broadcast lost a message), fetches the instance's
decision record from ``t + 1`` members — a PULL that wants nothing named,
answered with :meth:`~repro.consensus.sbc.SBCDecision.to_record` and its
proposals, once per requester and only to a member; a member that has not
decided the instance yet answers when it does.  The first record that proves
its decision against the committee of its epoch
(:func:`~repro.consensus.sbc.decision_from_record`) is adopted: the local
SBC of the instance detaches and the decision goes the way of a local one —
monitors, CONFIRM, parked CONFIRMs, ordered commit.  A later record that
proves a different decision is a conflicting confirmation.  None of the
three occurs in a fault-free scenario cell: those fetch nothing.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.types import ReplicaId, byzantine_tolerance
from repro.consensus.proofs import GroupedVotes, accountable_votes
from repro.consensus.sbc import SBCDecision, decision_from_record, verified_certificates


@dataclass
class InstanceRecord:
    """Book-keeping for one consensus index at one replica."""

    instance: int
    epoch: int
    committee: Tuple[ReplicaId, ...]
    started_at: float
    decision: Optional[SBCDecision] = None
    decided_at: Optional[float] = None
    confirmed_at: Optional[float] = None
    aborted: bool = False
    # Digests decided by other replicas that conflict with ours.
    conflicting_digests: Set[str] = field(default_factory=set)
    # Slots on which some remote decision disagreed with ours.
    disagreeing_slots: Set[ReplicaId] = field(default_factory=set)
    matching_confirmations: Set[ReplicaId] = field(default_factory=set)
    # Reconciliation pulls.  Senders whose conflicting CONFIRM was processed
    # (one each); for each missing (slot, digest) the confirmers asked for it
    # and whether each replied — every confirmer once, until a reply checks
    # out or ``recovery_threshold`` of them were asked; the hash-checked
    # replies; the remote decisions (slot -> digest) whose merge waits for a
    # reply; and the (requester, slot) pairs this replica already served.
    conflicting_senders: Set[ReplicaId] = field(default_factory=set)
    pulls_asked: Dict[Tuple[ReplicaId, str], Dict[ReplicaId, bool]] = field(default_factory=dict)
    pulled: Dict[Tuple[ReplicaId, str], Any] = field(default_factory=dict)
    pending_merges: List[Dict[ReplicaId, str]] = field(default_factory=list)
    pulls_served: Set[Tuple[ReplicaId, ReplicaId]] = field(default_factory=set)
    #: The decision's justification votes grouped, once the first conflicting
    #: CONFIRM needs them (a disagreed instance never retires, so they never
    #: go stale).
    justification_groups: Optional[GroupedVotes] = field(default=None, repr=False)

    @property
    def disagreed(self) -> bool:
        """True when at least one conflicting decision was observed."""
        return bool(self.conflicting_digests)


def _ids(value: Any) -> bool:
    """A committee as the wire carries one: a list of replica ids."""
    return type(value) is list and all(type(replica) is int for replica in value)


class DecisionLog:
    """One replica's decided history: the records (its ``instances``), the
    commit cursor, every epoch's committee, fetches in flight and catch-up.

    Its views are kept as it goes — the decided instances in order, the
    disagreed records — so none rescans the history.  It holds no consensus:
    :meth:`adopt` and :meth:`retire` are handed the replica's live SBCs.  It
    reads the replica's (``host``) clock, probe, id, topics and committee,
    and calls back into it for ``on_commit`` (read at each commit),
    ``_run_ready_merges``, ``_on_sbc_decided`` (an adopted record),
    ``_handle_confirm`` (a record proving another decision) and ``emit_to``;
    a standby's :meth:`join` also sets its view and calls ``update_committee``
    and ``_maybe_start_next_instance``.
    """

    def __init__(self, host: Any, committee: List[ReplicaId]) -> None:
        self._host = host
        self.records: Dict[int, InstanceRecord] = {}
        #: The instances decided here, in order.
        self.decided: List[int] = []
        #: The records on which a conflicting decision was seen, by instance.
        self.disagreed: Dict[int, InstanceRecord] = {}
        #: The next instance ``on_commit`` takes: every one below it is
        #: committed, in order (a joiner starts at its catch-up's cursor).
        self.next_commit = 0
        #: The committee of every epoch this replica knows, to verify a
        #: fetched decision record of that epoch against.
        self.epoch_committees: Dict[int, Tuple[ReplicaId, ...]] = {0: tuple(committee)}
        #: Instances whose decision record was fetched, and the members asked
        #: that have not answered yet (see :meth:`fetch`).
        self._fetches: Dict[int, Set[ReplicaId]] = {}
        #: Members whose fetch of an instance undecided here waits for the
        #: decision (see :meth:`serve`).
        self._waiting_fetches: Dict[int, Set[ReplicaId]] = {}
        self.catchup_completed_at: Optional[float] = None
        self.catchup_blocks_verified = 0

    # -- deciding, committing, retiring ------------------------------------------------

    def open(self, instance: int, epoch: int, committee: Tuple[ReplicaId, ...]) -> InstanceRecord:
        """A new record for ``instance``, started now."""
        record = self.records[instance] = InstanceRecord(instance, epoch, committee, self._host.now)
        return record

    def decide(self, decision: SBCDecision) -> Optional[InstanceRecord]:
        """Record ``decision`` and return its record; None when the instance
        is not open here (no record, decided or aborted)."""
        record = self.records.get(decision.instance)
        if record is None or record.decision is not None or record.aborted:
            return None
        record.decision = decision
        record.decided_at = self._host.now
        insort(self.decided, decision.instance)
        return record

    def commit(self) -> None:
        """Hand ``on_commit`` every decided instance from ``next_commit`` on,
        in instance order, each followed by the merges that waited for it."""
        host = self._host
        record = self.records.get(self.next_commit)
        while record is not None and record.decision is not None:
            self.next_commit += 1
            if host.on_commit is not None:
                host.on_commit(record.instance, record.decision)
            if record.pending_merges:
                host._run_ready_merges(record)
            record = self.records.get(self.next_commit)

    def undecided(self, last: int) -> List[InstanceRecord]:
        """The records of ``next_commit`` .. ``last`` with no decision, in
        instance order.  None lies below ``next_commit``: :meth:`commit`
        moves past decided records only, and a standby's :meth:`join` past
        instances it never started (it holds adopted, decided ones at most)."""
        records = self.records
        return [
            record
            for record in map(records.get, range(self.next_commit, last + 1))
            if record is not None and record.decision is None
        ]

    def retire(self, horizon: int, live: Dict[int, Any]) -> None:
        """Retire every instance of ``live`` (instance -> the replica's SBC)
        up to ``horizon`` that is settled here (see "Retirement")."""
        host = self._host
        me = host.replica_id
        for instance in [instance for instance in live if instance <= horizon]:
            record = self.records[instance]
            decision = record.decision
            # A conflicting digest is what merges and pulls wait on.
            if decision is None or record.disagreed:
                continue
            confirmed = record.matching_confirmations
            if any(member != me and member not in confirmed for member in record.committee):
                continue
            live.pop(instance).detach()
            decision.justification_votes = accountable_votes(decision.justification_votes)
            if host.probe is not None:
                host.probe.count("asmr.retired_instances")

    # -- gap fill ----------------------------------------------------------------------

    def is_member(self, sender: ReplicaId, record: Optional[InstanceRecord]) -> bool:
        """A member of the instance's committee here, or of the current one:
        a replica that joined since may have decided the instance again
        after this replica decided it in the epoch before."""
        members = self._host.committee()
        return sender in members or (record is not None and sender in record.committee)

    def fetch(self, instance: int, candidates: List[ReplicaId]) -> None:
        """Ask ``t + 1`` members for instance ``instance``'s decision record
        (a PULL that wants nothing named), once per instance: those of
        ``candidates`` (the senders of its parked CONFIRMs) that are members
        of an epoch this replica knows first, then the committee in id order.
        Nothing is fetched below ``next_commit`` or for a decided instance."""
        host = self._host
        record = self.records.get(instance)
        decided = record is not None and record.decision is not None
        if decided or instance in self._fetches or instance < self.next_commit:
            return
        committee = record.committee if record is not None else tuple(host.committee())
        members = set(committee).union(*self.epoch_committees.values())
        asked: List[ReplicaId] = []
        for member in [c for c in candidates if c in members] + sorted(committee):
            if member != host.replica_id and member not in asked:
                asked.append(member)
                if len(asked) > byzantine_tolerance(len(committee)):
                    break
        self._fetches[instance] = set(asked)
        if host.probe is not None:
            host.probe.count("asmr.fetches")
        for member in asked:
            host.emit_to(member, host.CONFIRM_TOPIC.child(instance), "PULL", {"instance": instance})

    def serve(self, requester: ReplicaId, instance: Any, ahead: int) -> None:
        """Answer a member's fetch with the decision record and its proposals,
        once per (requester, instance).  Undecided here, the fetch waits for
        the decision (:meth:`serve_waiting`), up to instance ``ahead``;
        anything else is dropped and counted."""
        record = self.records.get(instance) if type(instance) is int else None
        if type(instance) is int and self.is_member(requester, record):
            if record is not None and record.decision is not None:
                if (requester, None) not in record.pulls_served:
                    self._send_record(record, requester)
                    return
            elif self.next_commit <= instance <= ahead:
                self._waiting_fetches.setdefault(instance, set()).add(requester)
                return
        if self._host.probe is not None:
            self._host.probe.count("asmr.dropped_fetches")

    def serve_waiting(self, record: InstanceRecord) -> None:
        """Answer the fetches that waited for ``record``'s decision."""
        if self._waiting_fetches:
            for requester in sorted(self._waiting_fetches.pop(record.instance, ())):
                self._send_record(record, requester)

    def _send_record(self, record: InstanceRecord, requester: ReplicaId) -> None:
        # ``None`` stands for the whole record in ``pulls_served``.
        record.pulls_served.add((requester, None))
        body = record.decision.to_record(record.epoch, proposals=True)
        host = self._host
        host.emit_to(requester, host.CONFIRM_TOPIC.child(record.instance), "PROPOSALS", body)

    def fetched(self, sender: ReplicaId, body: Dict[str, Any], live: Dict[int, Any]) -> None:
        """A fetched decision record: one answer per member asked.  The first
        that proves its decision (``decision_from_record``, against the
        committee of the epoch it names) is adopted; a later one that proves
        a different decision is a conflicting confirmation.  Anything else is
        dropped and counted, and the gap stays open."""
        host = self._host
        instance = body.get("instance")
        asked = self._fetches.get(instance) if type(instance) is int else None
        epoch = body.get("epoch")
        committee = self.epoch_committees.get(epoch) if type(epoch) is int else None
        decision = None
        if asked is not None and sender in asked:
            asked.discard(sender)
            if committee is not None:
                topic = host.SBC_ROOT.child(epoch, instance)
                decision = decision_from_record(host, body, committee, topic)
        if decision is None:
            if host.probe is not None:
                host.probe.count("asmr.dropped_records")
            return
        record = self.records.get(instance)
        if record is not None and record.decision is not None:
            if record.decision.digest != decision.digest:
                host._handle_confirm(sender, body)
            return
        self.adopt(decision, epoch, committee, live)

    def adopt(
        self, decision: SBCDecision, epoch: int, committee: Tuple[ReplicaId, ...], live: Dict
    ) -> None:
        """Decide ``decision``, a peer's proven one, as if the local SBC had:
        the instance's SBC (if any) leaves ``live`` and detaches, and the
        record takes the epoch and committee the decision was reached in."""
        instance = decision.instance
        component = live.pop(instance, None)
        if component is not None:
            component.detach()
        record = self.records.get(instance) or self.open(instance, epoch, committee)
        record.epoch, record.committee, record.aborted = epoch, committee, False
        host = self._host
        if host.probe is not None:
            host.probe.count("asmr.adopted_records")
        host._on_sbc_decided(decision)

    # -- catch-up of newly included replicas (Fig. 5 right) --------------------------

    def send_catchup(self, replica: ReplicaId) -> None:
        """Send ``replica``, just included, the decided chain and the view
        after the membership change: it takes part in the restarted
        instances right away."""
        host = self._host
        blocks = []
        for instance in self.decided:
            record = self.records[instance]
            decision = record.decision
            certificates = decision.binary_certificates
            blocks.append({
                "instance": instance,
                "digest": decision.digest,
                "bitmask": dict(decision.bitmask),
                "proposals": dict(decision.proposals),
                "binary_certificates": {s: c.to_payload() for s, c in certificates.items()},
                "committee": list(record.committee),
            })  # fmt: skip
        host.emit_to(replica, host.CATCHUP_TOPIC, "CATCHUP", {
            "blocks": blocks,
            "epoch": host.epoch + 1,
            "committee": [r for r in host.committee() if r not in host.excluded_replicas],
            "target_instances": host.target_instances,
            "next_instance": self.decided[-1] + 1 if self.decided else 0,
        })  # fmt: skip

    def join(self, body: Dict[str, Any]) -> None:
        """Read the first CATCHUP of the shape :meth:`send_catchup` sends (any
        other is dropped and counted before anything changes): count the
        blocks whose certificates verify and, on a standby, join the
        committee in the sender's post-change view."""
        host = self._host
        if self.catchup_completed_at is not None:
            return
        blocks, committee = body.get("blocks", []), body.get("committee")
        counters = [body.get(key, 0) for key in ("epoch", "target_instances", "next_instance")]
        if not (
            type(blocks) is list
            and all(type(block) is dict and _ids(block.get("committee", [])) for block in blocks)
            and (committee is None or _ids(committee))
            and all(type(counter) is int for counter in counters)
        ):
            if host.probe is not None:
                host.probe.count("asmr.dropped_catchups")
            return
        verified = 0
        for block in blocks:
            certificates = block.get("binary_certificates", {})
            block_committee = block.get("committee", list(host.committee()))
            if verified_certificates(host, certificates, block_committee) is not None:
                verified += 1
        self.catchup_blocks_verified = verified
        self.catchup_completed_at = host.now
        if not host.standby:
            return
        host.standby = False
        if committee and host.replica_id in committee:
            host.update_committee(committee)
        host.epoch = max(host.epoch, body.get("epoch", host.epoch))
        host.target_instances = max(host.target_instances, body.get("target_instances", 0))
        host.next_instance = max(host.next_instance, body.get("next_instance", 0))
        self.next_commit = max(self.next_commit, host.next_instance)
        self.epoch_committees[host.epoch] = tuple(host.committee())
        host._maybe_start_next_instance()

    # -- views -------------------------------------------------------------------------

    def decided_instances(self) -> List[int]:
        """Indices of instances with a local decision, in order."""
        return list(self.decided)
