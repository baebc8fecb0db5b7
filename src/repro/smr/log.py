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
proposals, and the records of the conflicting decisions merged into it
(``merged``), once per requester and only to a member; a member that has not
decided the instance yet answers when it does.  The first record that proves
its decision against the committee of its epoch
(:func:`~repro.consensus.sbc.decision_from_record`) is adopted: the local
SBC of the instance detaches and the decision goes the way of a local one —
monitors, CONFIRM, parked CONFIRMs, ordered commit.  A replica that was no
member of that committee hears no CONFIRM of the instance: it takes the
merged records of every answer, as a catch-up's, and a member that sent it
the instance's record — answering a fetch or in a catch-up chunk — forwards
each merge it makes afterwards (:meth:`DecisionLog.forward_merge`), read
once per member.  A later record that proves a different decision is a
conflicting confirmation.  None of the three occurs
in a fault-free scenario cell: those fetch nothing.

**Catch-up.**  A membership change ends with every member sending each
replica it included a CATCHUP: the records of every membership change so far
(:attr:`DecisionLog.changes`: each change's exclusion and inclusion
decisions as :meth:`~repro.consensus.sbc.SBCDecision.to_record` with
proposals, and a proof of fraud against each member of the committee the
exclusion consensus ran without), the first instance the joiner runs, and
the first :data:`CATCHUP_RECORDS` decided instances, each as the record a
fetch is answered with followed by the records of the conflicting decisions
merged into it.  A ``cursor`` names the instance the rest starts at; the
joiner asks the member it joined on (its source) for it (``MORE``), one
chunk at a time, and fetches the rest instance by instance if a chunk is
:data:`CATCHUP_WAIT_S` late.  A joiner takes no view on a count: it
re-derives every committee from the genesis committee, one change after the
other, through the one record proof (:meth:`DecisionLog._prove`) — an
exclusion record against the slots it names, accepted only if every member
of the committee they leave out is the culprit of a proof of fraud that
verifies; what it decided excluded are the culprits of the verified proofs
of fraud its decided proposals carry, and the inclusion record, proven
against the rest, chooses who joins (:func:`~repro.smr.membership.
excluded_by`, :func:`~repro.smr.membership.included_by`, shared with the
live change).  It proves the first CATCHUP of each genesis member, joins on
the first whose records prove a committee naming it and the sender, and
takes the records of its source's chunks that prove their decision against
the committee of their epoch: one for an instance it holds no decision for
is adopted as a fetched one is, one that proves another decision is a
conflict, merged as a conflicting CONFIRM is.  Then it punishes the excluded
replicas and runs the instances its own driver asks for from the first one
its source's history does not hold.  The records it caught up on are
history: they retire nothing and age no memo.  A member still in the
inclusion consensus of a change its peers finished sends them its INIT,
which each answers once with a CATCHUP that carries the membership records
alone (:meth:`DecisionLog.serve_change`): the member completes its change
from the outcome they prove.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.types import ReplicaId, byzantine_tolerance
from repro.consensus.proofs import GroupedVotes, accountable_votes
from repro.consensus.sbc import SBCDecision, decision_from_record
from repro.network.topic import Topic
from repro.smr.membership import (
    MembershipChange,
    excluded_by,
    included_by,
    next_committee,
    verified_pofs,
)

#: Decided instances one CATCHUP carries at most (see "Catch-up").
CATCHUP_RECORDS = 16

#: How long a joiner waits for the chunk a ``MORE`` asked for before it
#: fetches the rest of the history instance by instance.
CATCHUP_WAIT_S = 2.0


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
    pending_merges: List[Dict[str, Any]] = field(default_factory=list)
    pulls_served: Set[Tuple[ReplicaId, ReplicaId]] = field(default_factory=set)
    #: The records of the conflicting decisions merged here, one per digest,
    #: with their proposals: what a catch-up sends after the instance's own.
    merged: List[Dict[str, Any]] = field(default_factory=list)
    #: The replicas outside the committee this record was sent to (a fetch's
    #: answer, a catch-up): each later merge is forwarded to them.
    sent_to: Set[ReplicaId] = field(default_factory=set)
    #: The decision's justification votes grouped, once the first conflicting
    #: CONFIRM needs them (a disagreed instance never retires, so they never
    #: go stale).
    justification_groups: Optional[GroupedVotes] = field(default=None, repr=False)

    @property
    def disagreed(self) -> bool:
        """True when at least one conflicting decision was observed."""
        return bool(self.conflicting_digests)


def _dicts(value: Any) -> bool:
    """True when ``value`` is a list of dicts, as records are sent."""
    return type(value) is list and all(type(item) is dict for item in value)


def _is_catchup(body: Dict[str, Any]) -> bool:
    """True when a CATCHUP body is of the shape :meth:`DecisionLog.send_catchup`
    sends: what it proves is checked later."""
    cursor = body.get("cursor")
    return (
        _dicts(body.get("records"))
        and _dicts(body.get("changes"))
        and type(body.get("next_instance")) is int
        and (cursor is None or type(cursor) is int)
    )


class DecisionLog:
    """One replica's decided history: the records (its ``instances``), the
    commit cursor, every epoch's committee, fetches in flight and catch-up.

    Its views are kept as it goes — the decided instances in order, the
    disagreed records — so none rescans the history.  It holds no consensus:
    :meth:`adopt` and :meth:`retire` are handed the replica's live SBCs.  It
    reads the replica's (``host``) clock, probe, id, topics and committee,
    and calls back into it for ``on_commit`` (read at each commit),
    ``_run_ready_merges``, ``_on_sbc_decided`` (an adopted record),
    ``_handle_confirm`` (a fetched record proving another decision),
    ``_disagree`` (a fetched or caught-up record of a merged decision) and
    ``emit_to``; a standby's :meth:`join` also sets its view and calls
    ``update_committee``, ``_maybe_start_next_instance`` and ``_fetch``
    (what its catch-up left); a stuck member's completes its
    ``membership_change`` (``complete_from``).
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
        #: The records of every membership change, by epoch: what a joiner
        #: proves every committee by (see "Catch-up"), and the (member,
        #: epoch) pairs they were sent for a stale inclusion INIT.
        self.changes: List[Dict[str, Any]] = []
        self._changes_served: Set[Tuple[ReplicaId, int]] = set()
        #: The (sender, epoch) pairs whose CATCHUP was proven here: one each.
        self._catchups_proven: Set[Tuple[ReplicaId, int]] = set()
        #: The member that answers a joiner's ``MORE`` while a chunk is due,
        #: the timer of the wait for it, and one past the last instance its
        #: chunks named.
        self._catchup_source: Optional[ReplicaId] = None
        self._source_wait: Optional[int] = None
        self._source_end = 0
        #: The first instance this replica ran live: a joiner's catch-up
        #: holds the ones below it (0 for a founding member).
        self.live_from = 0
        #: Joiners this replica sent a catch-up, and the cursor each may ask
        #: for next.
        self._joiners: Dict[ReplicaId, Optional[int]] = {}
        #: When this replica, included, held every caught-up record (the
        #: last chunk's, or every fetched one below :attr:`live_from`).
        self.catchup_completed_at: Optional[float] = None
        #: The instance below which a joiner has fetched its history: it
        #: fetches on as its commits reach it (see :meth:`_fetch_history`).
        self._history_fetched: Optional[int] = None

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
        fetched = self._history_fetched
        if fetched is not None:
            if fetched < min(self.live_from, self.next_commit + CATCHUP_RECORDS):
                self._fetch_history()
            self._held()

    def undecided(self, last: int) -> List[InstanceRecord]:
        """The records of ``next_commit`` .. ``last`` with no decision, in
        instance order.  None lies below ``next_commit``: :meth:`commit`
        moves past decided records only (a joiner's, adopted ones too)."""
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
        Nothing is fetched below ``next_commit``, for a decided instance, or
        below :attr:`live_from` while a catch-up chunk is due: it carries it."""
        host = self._host
        record = self.records.get(instance)
        decided = record is not None and record.decision is not None
        if decided or instance in self._fetches or instance < self.next_commit:
            return
        if self._catchup_source is not None and instance < self.live_from:
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
        if requester not in record.committee:
            record.sent_to.add(requester)
        body = record.decision.to_record(record.epoch, proposals=True)
        body["merged"] = record.merged
        host = self._host
        host.emit_to(requester, host.CONFIRM_TOPIC.child(record.instance), "PROPOSALS", body)

    def fetched(self, sender: ReplicaId, body: Dict[str, Any], live: Dict[int, Any]) -> None:
        """A fetched decision record: one answer per member asked.  The first
        that proves its decision (:meth:`_prove`) is adopted; a later one that
        proves a different decision is a conflicting confirmation.  Outside
        the instance's committee, this replica also takes the merged records
        each answer carries, and one merge each member forwards later (see
        "Gap fill").  Anything else is dropped and
        counted, and the gap stays open."""
        instance = body.get("instance")
        asked = self._fetches.get(instance) if type(instance) is int else None
        record = self.records.get(instance) if type(instance) is int else None
        decision = None
        if asked is not None and sender in asked:
            asked.discard(sender)
            decision = self._prove(body)
        elif (
            self._outside(record)
            and self.is_member(sender, record)
            and sender not in record.conflicting_senders
        ):
            record.conflicting_senders.add(sender)
            self._take_records(sender, [body], live)
            return
        elif self._host.probe is not None:
            self._host.probe.count("asmr.dropped_records")
        if decision is None:
            return
        if record is None or record.decision is None:
            self.adopt(decision, body["epoch"], live)
        elif record.decision.digest != decision.digest:
            self._host._handle_confirm(sender, body)
        merged = body.get("merged")
        if self._outside(self.records[instance]) and _dicts(merged):
            self._take_records(sender, merged, live)

    def _outside(self, record: Optional[InstanceRecord]) -> bool:
        """True when this replica holds ``record``'s decision but was no
        member of its committee: it hears no CONFIRM of it."""
        return (
            record is not None
            and record.decision is not None
            and self._host.replica_id not in record.committee
        )

    def forward_merge(self, record: InstanceRecord) -> None:
        """``record``'s instance merged another decision after this replica
        sent its record to replicas outside its committee: send them the
        merged record too (see "Gap fill")."""
        host = self._host
        for requester in sorted(record.sent_to):
            host.emit_to(
                requester, host.CONFIRM_TOPIC.child(record.instance), "PROPOSALS", record.merged[-1]
            )

    def _prove(
        self,
        body: Dict[str, Any],
        committee: Optional[Sequence[ReplicaId]] = None,
        topic: Optional[Topic] = None,
    ) -> Optional[SBCDecision]:
        """The decision a peer's record proves
        (:func:`~repro.consensus.sbc.decision_from_record`): an instance's
        against the committee of the epoch it names, a membership change's
        consensus against the ``committee`` and ``topic`` given.  None,
        dropped and counted, when it proves nothing."""
        host = self._host
        if topic is None:
            instance, epoch = body.get("instance"), body.get("epoch")
            committee = self.epoch_committees.get(epoch) if type(epoch) is int else None
            if committee is not None and type(instance) is int:
                topic = host.SBC_ROOT.child(epoch, instance)
        decision = None
        if topic is not None:
            decision = decision_from_record(host, body, committee, topic)
        if decision is None and host.probe is not None:
            host.probe.count("asmr.dropped_records")
        return decision

    def _prove_change(
        self, epoch: int, committee: Sequence[ReplicaId], change: Dict[str, Any]
    ) -> Optional[Tuple[List[ReplicaId], List[ReplicaId]]]:
        """What the records of epoch ``epoch``'s membership change prove it
        excluded from ``committee`` and included, or None.  The exclusion
        consensus ran over the slots its record names: ``committee`` less
        members ``change`` carries a proof of fraud against that verifies."""
        host = self._host
        exclusion, inclusion = change.get("exclusion"), change.get("inclusion")
        slots = exclusion.get("bitmask") if type(exclusion) is dict else None
        if type(slots) is not dict or type(inclusion) is not dict or not set(slots) <= set(committee):
            return None
        left_out = [member for member in committee if member not in slots]
        if len(verified_pofs(host, change.get("pofs"), left_out)) < len(left_out):
            return None
        decision = self._prove(exclusion, list(slots), host.EXCLUSION_ROOT.child(epoch))
        if decision is None:
            return None
        excluded = sorted(excluded_by(host, decision, committee))
        remaining = [member for member in committee if member not in excluded]
        decision = self._prove(inclusion, remaining, host.INCLUSION_ROOT.child(epoch))
        return None if decision is None else (excluded, included_by(decision, len(excluded)))

    def adopt(self, decision: SBCDecision, epoch: int, live: Dict) -> None:
        """Decide ``decision``, a peer's proven one, as if the local SBC had:
        the instance's SBC (if any) leaves ``live`` and detaches, and the
        record takes the epoch and committee the decision was reached in."""
        instance = decision.instance
        component = live.pop(instance, None)
        if component is not None:
            component.detach()
        committee = self.epoch_committees[epoch]
        record = self.records.get(instance) or self.open(instance, epoch, committee)
        record.epoch, record.committee, record.aborted = epoch, committee, False
        host = self._host
        if host.probe is not None:
            host.probe.count("asmr.adopted_records")
        host._on_sbc_decided(decision)

    # -- catch-up of newly included replicas (Fig. 5 right) --------------------------

    def send_catchup(self, replicas: List[ReplicaId], cursor: int = 0) -> None:
        """Send ``replicas``, included, the records of every membership
        change and the decided instances from ``cursor`` on (see
        "Catch-up"): one body for all of them."""
        decided = self.decided
        first = bisect_left(decided, cursor)
        chunk = decided[first : first + CATCHUP_RECORDS]
        records: List[Dict[str, Any]] = []
        for instance in chunk:
            record = self.records[instance]
            records.append(record.decision.to_record(record.epoch, proposals=True))
            records += record.merged
            record.sent_to.update(replicas)
        next_cursor = chunk[-1] + 1 if first + CATCHUP_RECORDS < len(decided) else None
        for replica in replicas:
            self._joiners[replica] = next_cursor
        self._emit_catchup(replicas, records, next_cursor)

    def _emit_catchup(
        self, replicas: List[ReplicaId], records: List[Dict[str, Any]], cursor: Optional[int]
    ) -> None:
        host = self._host
        host.emit(host.CATCHUP_TOPIC, "CATCHUP", {
            "records": records,
            "cursor": cursor,
            "changes": list(self.changes),
            "next_instance": self.next_commit,
        }, recipients=replicas)  # fmt: skip

    def serve_catchup(self, replica: ReplicaId, cursor: Any) -> None:
        """Answer a joiner's ``MORE``: the chunk at the cursor the last one
        named, once; anything else is dropped and counted."""
        if type(cursor) is int and self._joiners.get(replica) == cursor:
            self.send_catchup([replica], cursor)
        elif self._host.probe is not None:
            self._host.probe.count("asmr.dropped_catchups")

    def serve_change(self, member: ReplicaId, epoch: Any) -> None:
        """``member``, another replica, proposed to the inclusion consensus
        of ``epoch``, a change this replica completed: send it a CATCHUP
        whose membership records prove the outcome (see :meth:`join`), and
        no history — it holds it — once per (member, epoch)."""
        if (
            type(epoch) is int
            and epoch < len(self.changes)
            and member != self._host.replica_id
            and member in self.epoch_committees[epoch + 1]
            and (member, epoch) not in self._changes_served
        ):
            self._changes_served.add((member, epoch))
            self._emit_catchup([member], [], None)

    def join(self, sender: ReplicaId, body: Dict[str, Any], live: Dict[int, Any]) -> None:
        """Read a CATCHUP (see "Catch-up").  A chunk from the source a joiner
        asked moves its catch-up on.  Otherwise only the first CATCHUP of a
        member of the newest committee known here is proven, per epoch: a
        standby joins on one whose membership records prove, from the
        genesis committee, a view whose committee holds the standby and the
        sender, and a member still in the consensus of a change the records
        prove completes the change.  Anything else — another shape, another
        sender, a view or outcome nobody proves — is dropped and counted.

        Nothing proves ``next_instance``, so it is bounded: :attr:`live_from`
        is at most the replica's own target, which its driver sets as every
        member's (a CATCHUP names none), and, once the source sent the rest
        of the history (no cursor), one past the last instance the source's
        records name — an honest ``next_commit`` exceeds neither; the
        history below it is fetched :data:`CATCHUP_RECORDS` instances at a
        time."""
        host = self._host
        if _is_catchup(body):
            changes = body["changes"]
            if not host.standby:
                if sender == self._catchup_source:
                    host.transport.cancel(self._source_wait)
                    self._read_chunk(sender, body, live)
                    return
                change = host.membership_change
                if change is not None and change.epoch < len(changes) and self._first_from(sender):
                    if self._complete_change(change, changes[change.epoch]):
                        return
            elif self._first_from(sender):
                view = self._proven_view(changes)
                members = () if view is None else view[0][len(changes)]
                if sender in members and host.replica_id in members:
                    self._join(sender, body, view, live)
                    return
        if host.probe is not None:
            host.probe.count("asmr.dropped_catchups")

    def _first_from(self, sender: ReplicaId) -> bool:
        """True for the first CATCHUP this epoch of ``sender``, a member of
        the newest committee known here (the genesis one, for a standby):
        the one whose records are proven."""
        key, known = (sender, self._host.epoch), self.epoch_committees
        if key in self._catchups_proven or sender not in known[max(known)]:
            return False
        self._catchups_proven.add(key)
        return True

    def _complete_change(self, change: MembershipChange, records: Dict[str, Any]) -> bool:
        """Complete ``change``, the membership change this replica still
        runs, with the outcome its ``records`` prove; False when they prove
        nothing."""
        outcome = self._prove_change(change.epoch, self.epoch_committees[change.epoch], records)
        if outcome is not None:
            change.complete_from(*outcome, records)
        return outcome is not None

    def _proven_view(
        self, changes: List[Dict[str, Any]]
    ) -> Optional[Tuple[Dict[int, Tuple[ReplicaId, ...]], List[ReplicaId]]]:
        """The committee of every epoch and the replicas excluded, as
        ``changes`` prove them one change after the other from the genesis
        committee; None when one proves nothing."""
        committees = {0: self.epoch_committees[0]}
        excluded: List[ReplicaId] = []
        for epoch, change in enumerate(changes):
            outcome = self._prove_change(epoch, committees[epoch], change)
            if outcome is None:
                return None
            excluded += outcome[0]
            committees[epoch + 1] = next_committee(committees[epoch], *outcome)
        return committees, excluded

    def _join(self, sender: ReplicaId, body: Dict[str, Any], view: Tuple[Any, ...], live: Dict) -> None:
        """Join in the ``view`` ``sender``'s ``body`` proves: take its
        records, punish the excluded replicas, run the committee's instances
        from the first one the sender's history does not hold."""
        host = self._host
        committees, excluded = view
        self.changes = list(body["changes"])
        epoch = len(self.changes)
        self.epoch_committees.update(committees)
        host.update_committee(list(committees[epoch]))
        # Nobody a change included is a candidate any more, itself included.
        host.pool.mark_included(set().union(*committees.values()))
        host.epoch = max(host.epoch, epoch)
        host.excluded_replicas.update(excluded)
        self.live_from = min(body["next_instance"], host.target_instances)
        host.next_instance = max(host.next_instance, self.live_from)
        self._read_chunk(sender, body, live)
        if excluded and host.on_exclude is not None:
            host.on_exclude(sorted(set(excluded)))
        host.standby = False
        host._maybe_start_next_instance()
        host._fetch_decided_in_older_epochs()

    def _read_chunk(self, source: ReplicaId, body: Dict[str, Any], live: Dict) -> None:
        """Take the records of ``source``'s chunk and ask for the next one.
        The last chunk (no cursor) bounds :attr:`live_from`, and the next
        instance the replica starts with it, to one past the last instance
        the source's records name (see :meth:`join`)."""
        host = self._host
        records = body["records"]
        self._take_records(source, records, live)
        named = [record.get("instance") for record in records]
        self._source_end = max([self._source_end, *(k + 1 for k in named if type(k) is int)])
        if body["cursor"] is None and self._source_end < self.live_from:
            self.live_from = self._source_end
            host.next_instance = min(host.next_instance, self.live_from)
            host._maybe_start_next_instance()
        self._ask_for_more(source, body["cursor"])

    def _ask_for_more(self, source: ReplicaId, cursor: Optional[int]) -> None:
        """Ask ``source`` for the chunk at ``cursor``; with none, the catch-up
        is complete and what it left undecided is fetched."""
        host = self._host
        if cursor is None:
            self._catchup_source = None
            self.catchup_completed_at = host.now
            self._fetch_history()
        else:
            self._catchup_source = source
            host.emit_to(source, host.CATCHUP_TOPIC, "MORE", {"cursor": cursor})
            self._source_wait = host.set_timer(CATCHUP_WAIT_S, self._source_stalled)

    def _source_stalled(self) -> None:
        """The source did not answer a ``MORE`` in time: fetch the rest."""
        self._catchup_source = None
        self._fetch_history()
        self._held()

    def _held(self) -> None:
        """A joiner whose source went quiet holds its history once it
        committed every instance below :attr:`live_from`."""
        if self.catchup_completed_at is None and self.next_commit >= self.live_from:
            self.catchup_completed_at = self._host.now

    def _fetch_history(self) -> None:
        """Fetch the instances below :attr:`live_from` still undecided here,
        up to :data:`CATCHUP_RECORDS` past ``next_commit``: :meth:`commit`
        fetches on as they land, so no count a peer sent bounds a loop."""
        first = self.next_commit if self._history_fetched is None else self._history_fetched
        last = self._history_fetched = max(first, min(self.live_from, self.next_commit + CATCHUP_RECORDS))
        for instance in range(max(first, self.next_commit), last):
            self._host._fetch(instance)

    def _take_records(self, sender: ReplicaId, records: List[Dict[str, Any]], live: Dict) -> None:
        """Adopt each record that proves a decision for an instance with none
        here; one that proves another decision is a conflict, merged as a
        conflicting CONFIRM is, with the proposals it carries.  A record
        already held costs a digest comparison."""
        host = self._host
        for body in records:
            instance, digest = body.get("instance"), body.get("digest")
            record = self.records.get(instance) if type(instance) is int else None
            decided = record is not None and record.decision is not None
            if decided and (
                digest == record.decision.digest or digest in record.conflicting_digests
            ):
                continue
            decision = self._prove(body)
            if decision is None:
                continue
            if not decided:
                self.adopt(decision, body["epoch"], live)
                continue
            local = record.decision.proposal_digests
            for slot, proposal_digest in decision.proposal_digests.items():
                if local.get(slot) != proposal_digest:
                    record.pulled[(slot, proposal_digest)] = decision.proposals[slot]
            host._disagree(record, sender, body)

    # -- views -------------------------------------------------------------------------

    def decided_instances(self) -> List[int]:
        """Indices of instances with a local decision, in order."""
        return list(self.decided)
