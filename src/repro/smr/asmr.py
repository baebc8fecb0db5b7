"""ASMR — the Accountable State Machine Replication at the heart of ZLB.

Each replica runs the five phases of Figure 2 for every consensus index:

① **ASMR consensus** — one accountable SBC instance decides a set of proposals.
② **Confirmation** — the replica broadcasts its decision (digest, bitmask,
   per-slot proposal digests and certificates — never the proposals) and
   waits for matching confirmations; a conflicting confirmation reveals a
   disagreement, and only then are the proposals this replica lacks pulled
   from that confirmation's sender.
③ **Exclusion consensus** — once ``ceil(n/3)`` proofs of fraud are gathered
   the replica stops its pending consensus and runs the exclusion consensus of
   the membership change (Alg. 1).
④ **Inclusion consensus** — new candidates from the pool replace the excluded
   replicas.
⑤ **Reconciliation** — the decisions of the conflicting branches are merged
   (the Blockchain Manager turns this into a block merge, Alg. 2).

The decided history — ordered commit, retirement, gap fill and catch-up — is
the replica's :class:`~repro.smr.log.DecisionLog` (``history``).

**Early traffic.**  What a replica hears before it reaches the phase parks in
one :class:`EarlyTraffic` until it is released: a CONFIRM for an undecided
instance by its decision; consensus traffic past ``target_instances`` or of
the next epoch by a target raise or an epoch change; exclusion / inclusion
traffic of this or a later epoch by the attach of a membership change's
consensus.  It is routed again in arrival order (consensus traffic grouped by
sender, senders in the order they first parked), and what is still early
parks again.  A sender parks :data:`AHEAD_PER_SENDER` messages of all kinds
together.  A drop counts in ``asmr.early_dropped`` by ``reason``: ``far``
(past :data:`AHEAD_WINDOW` instances ahead, two or more epochs ahead, or no
instance), ``full`` (past the sender's share) or ``stale`` (a finished epoch).

The replica is application-agnostic: the payment system plugs in through the
``proposal_factory`` (what to propose), ``proposal_validator`` (is a proposal
acceptable) and the ``on_commit`` / ``on_merge`` / ``on_exclude`` callbacks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.common.config import ProtocolConfig
from repro.common.memo import AgedMemo
from repro.common.types import FaultKind, ReplicaId, recovery_threshold
from repro.consensus.certificates import VoteKind, certificate_from_payload, retire_memos
from repro.consensus.proofs import (
    GroupedVotes,
    ProofOfFraud,
    extract_pofs_from_grouped,
    group_votes,
    merge_pofs,
)
from repro.consensus.sbc import SBCDecision, SetByzantineConsensus
from repro.crypto.hashing import hash_payload
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import Signer
from repro.network.topic import Topic, topic
from repro.obs.monitors import MonitorSet
from repro.smr.log import DecisionLog, InstanceRecord
from repro.smr.membership import MembershipChange, MembershipOutcome, next_committee
from repro.smr.pool import CandidatePool
from repro.smr.replica import BaseReplica

#: Default assumed deceitful ratio used to size the confirmation quorum
#: (the paper requires messages from more than (delta + 1/3) * n replicas).
DEFAULT_CONFIRMATION_DELTA = 5.0 / 9.0

#: Early traffic parks this many instances past the local target, and this
#: many messages per sender (see "Early traffic").
AHEAD_WINDOW = 8
AHEAD_PER_SENDER = 1024

#: How long an SBC may wait for the proposal of a slot decided 1 after a
#: CONFIRM for its instance came before the replica fetches the decision
#: record (see "Gap fill" in :mod:`repro.smr.log`).  Without loss the
#: broadcast completes within two hops; the longest such wait on the scenario
#: grids is 0.45 s (high jitter).
PROPOSAL_WAIT_S = 2.0

#: The votes of a CONFIRM body's certificates, grouped, by ``id(body)``: the
#: identity memo of the disagreement path.  CONFIRM bodies cross the simulated
#: wire *by reference*: every recipient dispatches the same dict object, so
#: parsing the carried certificates once per broadcast (instead of once per
#: recipient) changes nothing but the host clock.  Entries pin the keyed
#: object itself, which keeps its ``id()`` stable for the lifetime of the
#: entry; the memo ages with the retirement horizon.
_CONFIRM_GROUPED: AgedMemo = AgedMemo(cap=1 << 14)


def _confirm_grouped_votes(body: Dict[str, Any]) -> GroupedVotes:
    """Votes carried by a CONFIRM body's certificates, parsed+grouped once.

    A binary certificate is read for its AUX votes and an RBC certificate
    for its READY votes — all an honest one holds — so a retired decision's
    narrowed justification (:func:`accountable_votes`) meets any CONFIRM as
    the full one did.
    """
    key = id(body)
    try:
        hit = _CONFIRM_GROUPED[key]
        if hit[0] is body:
            return hit[1]
    except KeyError:
        pass
    votes: List[Any] = []
    for group, kind in (
        ("binary_certificates", VoteKind.AUX),
        ("rbc_certificates", VoteKind.RBC_READY),
    ):
        for payload in body.get(group, {}).values():
            try:
                certificate = certificate_from_payload(payload)
            except (KeyError, TypeError, ValueError):
                continue
            votes += [vote for vote in certificate.votes if vote.kind is kind]
    grouped = group_votes(votes)
    _CONFIRM_GROUPED[key] = (body, grouped)
    return grouped


class EarlyTraffic:
    """The messages a replica heard before it reached their phase, each
    parked under what releases it: an instance (its CONFIRMs), ``"ahead"``
    (consensus traffic) or ``"membership"`` (see "Early traffic")."""

    def __init__(self, host: BaseReplica) -> None:
        self._host = host
        #: Release key -> the messages waiting for it, in arrival order, as
        #: the router hands them: ``(topic, sender, kind, body)``.
        self.parked: Dict[Any, List[tuple]] = {}
        #: How many messages each sender has parked, under every key.
        self._held: Dict[ReplicaId, int] = {}

    def park(self, key: Any, message: tuple) -> bool:
        """Park ``message`` until ``key`` is released; past the sender's
        share it is dropped and counted instead, and False returned."""
        sender = message[1]
        held = self._held.get(sender, 0)
        if held >= AHEAD_PER_SENDER:
            self.drop("full")
            return False
        self.parked.setdefault(key, []).append(message)
        self._held[sender] = held + 1
        return True

    def drop(self, reason: str) -> None:
        """Count an early message that does not park."""
        probe = self._host.probe
        if probe is not None:
            probe.count("asmr.early_dropped", reason=reason)

    def replay(self, key: Any) -> None:
        """Route again what waited for ``key``; what is still early parks
        again.  Consensus traffic comes out grouped by sender: the order the
        pinned schedules were recorded in."""
        messages = self.parked.pop(key, [])
        for message in messages:
            self._held[message[1]] -= 1
        if key == "ahead":
            first: Dict[ReplicaId, int] = {}
            for message in messages:
                first.setdefault(message[1], len(first))
            messages.sort(key=lambda message: first[message[1]])
        for message in messages:
            self._host.route(*message)


class ASMRReplica(BaseReplica):
    """A replica running accountable SMR with membership changes.

    Routing: every protocol layer registers a handler on the replica's
    hierarchical router at construction time —

    * ``("asmr", "confirm")`` / ``("asmr", "pofs")`` / ``("asmr", "catchup")``
      for the confirmation/accountability/catch-up phases;
    * ``("sbc",)`` as a fallback that lazily starts consensus instances other
      replicas already began, and parks what is early;
    * ``("excl",)`` / ``("incl",)`` as a fallback that parks what no started
      consensus of a membership change owns yet.

    Every Set Byzantine Consensus — of phase ①, exclusion or inclusion — is
    reached the same way: when it starts, its
    :meth:`~repro.consensus.sbc.SetByzantineConsensus.attach` registers its
    components' topics and its own prefix (``("sbc", epoch, instance)``,
    ``("excl", epoch)``, ``("incl", epoch)``), shadowing the fallback, until
    ``detach`` (instance replaced, membership change complete).
    """

    CONFIRM_TOPIC = topic("asmr", "confirm")
    POFS_TOPIC = topic("asmr", "pofs")
    CATCHUP_TOPIC = topic("asmr", "catchup")
    SBC_ROOT = topic("sbc")
    EXCLUSION_ROOT = topic("excl")
    INCLUSION_ROOT = topic("incl")

    def __init__(
        self,
        replica_id: ReplicaId,
        committee: Sequence[ReplicaId],
        signer: Signer,
        registry: KeyRegistry,
        pool: Optional[CandidatePool] = None,
        config: Optional[ProtocolConfig] = None,
        fault: FaultKind = FaultKind.HONEST,
        proposal_factory: Optional[Callable[[int], Any]] = None,
        proposal_validator: Optional[Callable[[ReplicaId, Any], bool]] = None,
        on_commit: Optional[Callable[[int, SBCDecision], None]] = None,
        on_merge: Optional[Callable[[int, Dict[ReplicaId, Any]], None]] = None,
        on_exclude: Optional[Callable[[List[ReplicaId]], None]] = None,
        standby: bool = False,
        finalization_blockdepth: int = 5,
        monitors: Optional[MonitorSet] = None,
    ):
        super().__init__(replica_id, committee, signer, registry, fault=fault)
        #: The deployment's invariant monitors; a replica built on its own
        #: checks against a set of its own.
        self.monitors = monitors if monitors is not None else MonitorSet()
        self.config = config or ProtocolConfig()
        #: ``m``: how far behind the decided head an instance retires (the
        #: payment layer's finalization blockdepth; 5 is its default too).
        self.finalization_blockdepth = finalization_blockdepth
        self.pool = pool or CandidatePool([])
        self.proposal_factory = proposal_factory or (
            lambda instance: {"instance": instance, "proposer": replica_id, "txs": []}
        )
        self.proposal_validator = proposal_validator
        self.on_commit = on_commit
        self.on_merge = on_merge
        self.on_exclude = on_exclude
        #: A standby replica belongs to the candidate pool: it stays passive
        #: until an inclusion consensus adds it to the committee.
        self.standby = standby

        self.epoch = 0
        self.target_instances = 0
        self.next_instance = 0
        self.history = DecisionLog(self, committee)
        #: The history's own records, by instance, and its decided ones.
        self.instances: Dict[int, InstanceRecord] = self.history.records
        self.decided_instances = self.history.decided_instances
        #: The :data:`PROPOSAL_WAIT_S` timer of each instance that has one.
        self._proposal_waits: Dict[int, int] = {}
        self._sbc: Dict[int, SetByzantineConsensus] = {}
        self.pofs: Dict[ReplicaId, ProofOfFraud] = {}
        self.detected_at: Optional[float] = None
        self.membership_change: Optional[MembershipChange] = None
        self.membership_outcomes: List[MembershipOutcome] = []
        self.excluded_replicas: Set[ReplicaId] = set()
        self._early = EarlyTraffic(self)
        #: Open per-instance root spans (traced runs only).
        self._instance_spans: Dict[int, Any] = {}
        #: ``[start, last RBC delivery, last binary decision]`` of every
        #: instance started here and not committed yet — a restart keeps the
        #: first start — while the probe has metrics (a ZLB replica turns it
        #: on and observes the phases at commit).
        self._phase_marks: Optional[Dict[int, List[float]]] = None

        router = self.router
        router.register(self.CONFIRM_TOPIC, self._route_confirm)
        router.register(self.POFS_TOPIC, self._route_pofs)
        router.register(self.CATCHUP_TOPIC, self._route_catchup)
        router.register(self.SBC_ROOT, self._route_lazy_sbc)
        router.register(self.EXCLUSION_ROOT, self._park_membership)
        router.register(self.INCLUSION_ROOT, self._park_membership)

    # -- driving the replica -----------------------------------------------------------

    def on_start(self) -> None:
        if not self.standby and self.target_instances > 0:
            self._maybe_start_next_instance()

    def submit_instances(self, count: int) -> None:
        """Ask the replica to run ``count`` more consensus instances; a
        standby runs them once a membership change includes it."""
        self.target_instances += count
        if self._transport is not None and not self.standby:
            self._maybe_start_next_instance()
            self._early.replay("ahead")

    def _maybe_start_next_instance(self) -> None:
        if self.standby or self.fault is FaultKind.BENIGN:
            return
        if self.membership_change is not None and self.membership_change.outcome is None:
            return
        while self.next_instance in self.instances:
            # Adopted from a peer's record before this replica reached it.
            self.next_instance += 1
        if self.next_instance >= self.target_instances:
            return
        previous = self.instances.get(self.next_instance - 1)
        if self.next_instance > 0 and previous is not None:
            if previous.decision is None and not previous.aborted:
                return
        instance = self.next_instance
        self.next_instance += 1
        self._start_instance(instance)

    def _start_instance(self, instance: int) -> None:
        self.history.open(instance, self.epoch, tuple(self.committee()))
        probe = self.probe
        tracer = None
        if probe is not None and probe.trace is not None:
            # The instance's span: everything this replica proposes for the
            # instance — the INIT broadcast and the whole causal cascade it
            # triggers at other replicas — chains under it.  A proposer
            # starting cold opens a fresh trace; a lazy start (triggered by
            # another replica's message) chains under that delivery instead.
            tracer = probe.trace.tracer
            span = tracer.start_span(
                "asmr.instance",
                self.replica_id,
                self.now,
                epoch=self.epoch,
                instance=instance,
            )
            self._instance_spans[instance] = span
            previous = tracer.activate(span.ctx)
        marks = self._phase_marks
        if marks is not None:
            now = self.now
            marks = marks.setdefault(instance, [now, now, now])
        try:
            component = SetByzantineConsensus(
                host=self,
                instance=instance,
                on_decide=self._on_sbc_decided,
                proposal_validator=self.proposal_validator,
                protocol_prefix=self.SBC_ROOT.child(self.epoch),
                phase_marks=marks,
            )
            self._sbc[instance] = component
            # Its ("sbc", epoch, instance) prefix now shadows the lazy
            # fallback registered at ("sbc",).
            component.attach(self.router)
            component.propose(self.proposal_factory(instance))
        finally:
            if tracer is not None:
                tracer.restore(previous)

    # -- ① consensus ---------------------------------------------------------------------

    def _on_sbc_decided(self, decision: SBCDecision) -> None:
        history = self.history
        record = history.decide(decision)
        if record is None:
            return
        if self._proposal_waits:
            timer = self._proposal_waits.pop(decision.instance, None)
            if timer is not None:
                self.transport.cancel(timer)
        probe = self.probe
        if probe is not None:
            now = record.decided_at
            instance, digest = decision.instance, decision.digest
            probe.event("asmr.decide", self.replica_id, now, instance=instance, digest=digest)
            probe.finish(self._instance_spans.pop(decision.instance, None), now)
        self.monitors.on_decision(
            self.replica_id, record.epoch, decision.instance, decision.digest, record.decided_at
        )
        history.commit()
        # A joiner confirms nothing it caught up on: it was not a member.
        if self.config.confirmation_enabled and self.replica_id in record.committee:
            self._broadcast_confirmation(record)
        self._early.replay(decision.instance)
        history.serve_waiting(record)
        for gap in range(history.next_commit, decision.instance):
            # Decided past an undecided instance: fetch what was missed.
            self._fetch(gap)
        self._maybe_start_next_instance()
        horizon = decision.instance - self.finalization_blockdepth
        # A record a joiner caught up on is history: it moves no horizon.
        if horizon >= 0 and decision.instance >= history.live_from:
            history.retire(horizon, self._sbc)
            depth = self.finalization_blockdepth
            self._registry.retire(horizon, depth)
            retire_memos(horizon, depth)
            _CONFIRM_GROUPED.retire(horizon, depth)

    def _fetch(self, instance: int) -> None:
        """Fetch ``instance``'s decision record, from its CONFIRMs' senders first."""
        parked = self._early.parked.get(instance, ())
        self.history.fetch(instance, [message[1] for message in parked])

    # -- ② confirmation --------------------------------------------------------------------

    def confirmation_quorum(self) -> int:
        """Messages required to confirm: more than (delta + 1/3) * n, capped at n."""
        n = self.committee_size()
        needed = int((DEFAULT_CONFIRMATION_DELTA + 1.0 / 3.0) * n) + 1
        return min(n, needed)

    def _broadcast_confirmation(self, record: InstanceRecord) -> None:
        body = record.decision.to_record(record.epoch)
        self.emit(self.CONFIRM_TOPIC.child(record.instance), "CONFIRM", body)

    def _handle_confirm(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        instance = body.get("instance")
        record = self.instances.get(instance) if type(instance) is int else None
        if record is None or record.decision is None:
            # Not decided here yet: early traffic.
            if type(instance) is not int or not 0 <= instance <= self.target_instances + AHEAD_WINDOW:
                self._early.drop("far")
            elif self._early.park(instance, (self.CONFIRM_TOPIC, sender, "CONFIRM", body)):
                if self._decided_in_older_epoch(record, sender, body):
                    self._fetch(instance)
                elif (
                    instance not in self._proposal_waits
                    and instance in self._sbc
                    and self._sbc[instance].waits_for_proposals()
                ):
                    self._proposal_waits[instance] = self.set_timer(
                        PROPOSAL_WAIT_S, lambda: self._fetch(instance)
                    )
            return
        local = record.decision
        remote_digest = body.get("digest")
        if remote_digest == local.digest:
            record.matching_confirmations.add(sender)
            if (
                record.confirmed_at is None
                and len(record.matching_confirmations) + 1 >= self.confirmation_quorum()
            ):
                record.confirmed_at = self.now
                if self.probe is not None and record.decided_at is not None:
                    self.probe.observe(
                        "asmr.confirm_s", record.confirmed_at - record.decided_at
                    )
            return
        # Disagreement: another honest replica decided a different set.  One
        # conflicting CONFIRM per sender is all an honest sender produces.
        if sender in record.conflicting_senders:
            return
        record.conflicting_senders.add(sender)
        self._disagree(record, sender, body)
        self._extract_pofs_from_confirm(record, body)

    def _disagree(self, record: InstanceRecord, sender: ReplicaId, body: Dict[str, Any]) -> None:
        """``body`` records another decision of ``record``'s instance, from
        ``sender``: note the disagreement and merge the decision (⑤)."""
        instance, remote_digest = record.instance, body.get("digest")
        if not record.conflicting_digests:
            self.log.info(
                "disagreement on instance %s: remote %s decided %s, local %s",
                instance, sender, remote_digest, record.decision.digest,
            )  # fmt: skip
            probe = self.probe
            if probe is not None:
                now = self.now
                probe.count("zlb.disagreement_instances")
                probe.gauge("zlb.recovery.disagreement_s", now)
                probe.event(
                    "asmr.disagreement", self.replica_id, now, instance=instance, remote=sender
                )
            self.monitors.on_disagreement(self.replica_id, instance, self.now)
            self.history.disagreed[instance] = record
        record.conflicting_digests.add(str(remote_digest))
        self._record_disagreeing_slots(record, body)
        self._reconcile(record, sender, body)

    def _decided_in_older_epoch(
        self, record: Optional[InstanceRecord], sender: ReplicaId, body: Dict[str, Any]
    ) -> bool:
        """True when a member of an epoch this replica knows confirms an
        instance undecided here as decided in that epoch, and it is older
        than this replica's record of the instance (its own epoch, with no
        record): an instance it aborted and restarted, or has not restarted
        yet.  Nobody runs that instance again for it."""
        epoch = body.get("epoch")
        committee = self.history.epoch_committees.get(epoch) if type(epoch) is int else None
        return (
            committee is not None
            and sender in committee
            and epoch < (self.epoch if record is None else record.epoch)
        )

    def _record_disagreeing_slots(self, record: InstanceRecord, body: Dict[str, Any]) -> None:
        local = record.decision
        assert local is not None
        remote_bitmask = body.get("bitmask", {})
        remote_digests = body.get("proposal_digests", {})
        slots = set(local.bitmask) | set(remote_bitmask)
        for slot in slots:
            local_bit = local.bitmask.get(slot, 0)
            remote_bit = remote_bitmask.get(slot, 0)
            if local_bit != remote_bit:
                record.disagreeing_slots.add(slot)
            elif local_bit == 1 and local.proposal_digests.get(slot) != remote_digests.get(slot):
                record.disagreeing_slots.add(slot)

    # -- ⑤ reconciliation -------------------------------------------------------------------

    def _reconcile(self, record: InstanceRecord, sender: ReplicaId, body: Dict[str, Any]) -> None:
        """Merge the remote decision, pulling the proposals we lack first.

        A proposal decided here under the same digest is already local; any
        other ``(slot, digest)`` still missing is asked of this CONFIRM's
        sender — so a confirmer that withholds its reply delays the merge only
        until the next one confirms the same digest — up to
        ``recovery_threshold`` confirmers per ``(slot, digest)``.
        """
        remote_digests = body.get("proposal_digests")
        if self.on_merge is None or not isinstance(remote_digests, dict) or not remote_digests:
            return
        if not all(isinstance(digest, str) for digest in remote_digests.values()):
            return
        local_digests = record.decision.proposal_digests
        cap = recovery_threshold(len(record.committee))
        wanted = {}
        for slot, digest in remote_digests.items():
            key = (slot, digest)
            if local_digests.get(slot) == digest or key in record.pulled:
                continue
            asked = record.pulls_asked.setdefault(key, {})
            if len(asked) < cap:
                asked[sender] = False
                wanted[slot] = digest
        if wanted:
            pull = {"instance": record.instance, "wanted": wanted}
            self.emit_to(sender, self.CONFIRM_TOPIC.child(record.instance), "PULL", pull)
        record.pending_merges.append(body)
        self._run_ready_merges(record)

    def _run_ready_merges(self, record: InstanceRecord) -> None:
        """Hand ``on_merge`` every waiting remote decision whose proposals are
        all here, in the order their CONFIRMs arrived — once the instance is
        committed here: a merge lands on a branch that holds its block.  The
        first merge of each digest is kept as a record for catch-up, and
        forwarded to the replicas outside the committee the instance's record
        was sent to (``DecisionLog.forward_merge``)."""
        if record.instance >= self.history.next_commit:
            return
        local = record.decision
        waiting: List[Dict[str, Any]] = []
        for body in record.pending_merges:
            proposals: Dict[ReplicaId, Any] = {}
            for slot, digest in body["proposal_digests"].items():
                if local.proposal_digests.get(slot) == digest:
                    proposals[slot] = local.proposals[slot]
                elif (slot, digest) in record.pulled:
                    proposals[slot] = record.pulled[(slot, digest)]
                else:
                    waiting.append(body)
                    break
            else:
                self.on_merge(record.instance, proposals)
                if all(merged.get("digest") != body.get("digest") for merged in record.merged):
                    record.merged.append({**body, "proposals": proposals})
                    self.history.forward_merge(record)
        record.pending_merges = waiting

    def _record_named_in(self, body: Dict[str, Any]) -> Optional[InstanceRecord]:
        instance = body.get("instance")
        return self.instances.get(instance) if type(instance) is int else None

    def _handle_pull(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        """Serve decided proposals to a replica whose decision conflicts: only
        what this replica decided under the digest asked for, once per
        (requester, slot), only to members.  A PULL that wants nothing named
        is a fetch (``DecisionLog.serve``)."""
        wanted = body.get("wanted")
        if wanted is None:
            self.history.serve(sender, body.get("instance"), self.target_instances + AHEAD_WINDOW)
            return
        record = self._record_named_in(body)
        if (
            record is None
            or record.decision is None
            or not isinstance(wanted, dict)
            or not self.history.is_member(sender, record)
        ):
            return
        decision = record.decision
        proposals = {}
        for slot, digest in wanted.items():
            if (sender, slot) in record.pulls_served:
                continue
            if slot in decision.proposals and decision.proposal_digests[slot] == digest:
                record.pulls_served.add((sender, slot))
                proposals[slot] = decision.proposals[slot]
        if proposals:
            reply = {"instance": record.instance, "proposals": proposals}
            self.emit_to(sender, self.CONFIRM_TOPIC.child(record.instance), "PROPOSALS", reply)

    def _handle_proposals(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        """Keep the pulled proposals this replica asked ``sender`` for and
        whose hash is the digest ``sender`` confirmed; drop everything else,
        and anything ``sender`` sends for the same slot afterwards.  A body
        with a digest answers a fetch (``DecisionLog.fetched``)."""
        if "digest" in body:
            self.history.fetched(sender, body, self._sbc)
            return
        record = self._record_named_in(body)
        proposals = body.get("proposals")
        if record is None or not isinstance(proposals, dict):
            return
        stored = False
        for key, asked in record.pulls_asked.items():
            slot, digest = key
            if asked.get(sender) is not False or slot not in proposals:
                continue
            asked[sender] = True
            if key not in record.pulled and hash_payload(proposals[slot]) == digest:
                record.pulled[key] = proposals[slot]
                stored = True
        if stored:
            self._run_ready_merges(record)

    # -- accountability: PoF extraction and gossip ----------------------------------------------

    def _extract_pofs_from_confirm(self, record: InstanceRecord, body: Dict[str, Any]) -> None:
        # Equivalent to extracting over justification votes + the body's
        # certificate votes, but each side is grouped once (per decision /
        # per broadcast body) and culprits that already have a PoF are
        # skipped — merge_pofs would drop them anyway.
        local = record.justification_groups
        if local is None:
            local = record.justification_groups = group_votes(
                record.decision.justification_votes
            )
        new_pofs = extract_pofs_from_grouped(
            local, _confirm_grouped_votes(body), skip=self.pofs
        )
        added = merge_pofs(self.pofs, new_pofs, verifier=self)
        if added:
            self._broadcast_pofs(added)
        self._after_pof_update()

    def _broadcast_pofs(self, pofs: Iterable[ProofOfFraud]) -> None:
        body = {"pofs": [pof.to_payload() for pof in pofs]}
        self.emit(self.POFS_TOPIC, "POFS", body)

    def _handle_pofs(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        payloads = body.get("pofs", [])
        received: List[ProofOfFraud] = []
        for payload in payloads:
            try:
                received.append(ProofOfFraud.from_payload(payload))
            except (KeyError, TypeError, ValueError):
                continue
        added = merge_pofs(self.pofs, received, verifier=self)
        if added:
            # Re-broadcast newly learnt PoFs (Alg. 1 line 26).
            self._broadcast_pofs(added)
        self._after_pof_update()

    def pof_threshold(self) -> int:
        """Number of distinct culprits required to start a membership change."""
        if self.config.pof_threshold is not None:
            return self.config.pof_threshold
        return self.support

    def _after_pof_update(self) -> None:
        probe = self.probe
        if probe is not None:
            probe.gauge("zlb.pofs", len(self.pofs), replica=self.replica_id)
        if self.pofs and self.detected_at is None:
            if len(self.pofs) >= self.pof_threshold():
                self.detected_at = self.now
                self.log.info(
                    "coalition detected: %s proof(s) of fraud against %s",
                    len(self.pofs),
                    sorted(self.pofs),
                )
                if probe is not None:
                    probe.gauge("zlb.recovery.detected_s", self.detected_at)
        self._maybe_start_membership_change()

    # -- ③/④ membership change --------------------------------------------------------------------

    def _maybe_start_membership_change(self) -> None:
        if self.membership_change is not None:
            self.membership_change.learn_pofs(self.pofs)
            return
        # Only members count: a proof against a replica excluded already
        # (learnt again from a late CONFIRM) has been acted on.
        committee = set(self.committee())
        relevant_pofs = {
            culprit: pof for culprit, pof in self.pofs.items() if culprit in committee
        }
        if len(relevant_pofs) < self.pof_threshold():
            return
        # Stop the pending ASMR consensus (Alg. 1 line 19).  No instance past
        # the target has started: later traffic is parked, not run.
        for record in self.history.undecided(self.target_instances):
            record.aborted = True
        if self.probe is not None:
            self.probe.gauge("zlb.recovery.exclusion_started_s", self.now)
        self.log.info(
            "membership change started (epoch %s): excluding %s", self.epoch, sorted(relevant_pofs)
        )
        self.membership_change = change = MembershipChange(
            host=self,
            epoch=self.epoch,
            committee=self.committee(),
            pofs=relevant_pofs,
            pool=self.pool,
            on_complete=self._on_membership_complete,
            on_inclusion_started=self._on_inclusion_started,
        )
        change.exclusion.attach(self.router)
        change.start()
        self._early.replay("membership")

    def _on_inclusion_started(self) -> None:
        """The inclusion consensus has proposed: what beat it here is parked."""
        self.membership_change.inclusion.attach(self.router)
        self._early.replay("membership")

    def _on_membership_complete(self, outcome: MembershipOutcome) -> None:
        probe = self.probe
        if probe is not None:
            probe.gauge("zlb.recovery.excluded_s", outcome.exclusion_decided_at)
            probe.gauge("zlb.recovery.included_s", outcome.inclusion_decided_at)
        self.membership_outcomes.append(outcome)
        self.excluded_replicas.update(outcome.excluded)
        self.log.info(
            "membership change complete: excluded %s, included %s",
            outcome.excluded, outcome.included,
        )  # fmt: skip
        change = self.membership_change
        new_committee = next_committee(self.committee(), outcome.excluded, outcome.included)
        self.update_committee(new_committee)
        self.history.epoch_committees[self.epoch + 1] = new_committee
        self.history.changes.append(change.records)
        if self.on_exclude is not None and outcome.excluded:
            self.on_exclude(list(outcome.excluded))
        # Send the chain state to the replicas that just joined (Fig. 5 right).
        if outcome.included:
            self.history.send_catchup(list(outcome.included))
        # Clear the treated PoFs (Alg. 1 line 39) and prepare the next epoch.
        for culprit in outcome.excluded:
            self.pofs.pop(culprit, None)
        change.exclusion.detach()
        if change.inclusion is not None:
            change.inclusion.detach()
        self.membership_change = None
        self.epoch += 1
        # Restart the aborted consensus instances with the new committee
        # (Alg. 1 line 49 / Fig. 2 "goto ①").
        undecided = self.history.undecided(self.target_instances)
        aborted = [record.instance for record in undecided if record.aborted]
        for instance in aborted:
            old_component = self._sbc.pop(instance, None)
            if old_component is not None:
                old_component.detach()
            del self.instances[instance]
        if aborted:
            self.next_instance = min(self.next_instance, aborted[0])
        self._maybe_start_next_instance()
        self._early.replay("ahead")
        self._fetch_decided_in_older_epochs()

    def _fetch_decided_in_older_epochs(self) -> None:
        """Fetch each instance a parked CONFIRM shows decided in an epoch
        older than this replica's record of it: after an epoch change, the
        CONFIRMs that came before it read differently."""
        # The keys that are instances hold CONFIRMs.
        for instance in sorted(key for key in self._early.parked if type(key) is int):
            record = self.instances.get(instance)
            if any(
                self._decided_in_older_epoch(record, message[1], message[3])
                for message in self._early.parked[instance]
            ):
                self._fetch(instance)

    # -- message routing ---------------------------------------------------------------------------------------

    def _route_confirm(self, message_topic: Topic, sender: ReplicaId, kind: str, body: Dict[str, Any]) -> None:
        if kind == "CONFIRM":
            self._handle_confirm(sender, body)
        elif kind == "PULL":
            self._handle_pull(sender, body)
        elif kind == "PROPOSALS":
            self._handle_proposals(sender, body)

    def _route_pofs(self, message_topic: Topic, sender: ReplicaId, kind: str, body: Dict[str, Any]) -> None:
        self._handle_pofs(sender, body)

    def _route_catchup(self, message_topic: Topic, sender: ReplicaId, kind: str, body: Dict[str, Any]) -> None:
        if kind == "MORE":
            self.history.serve_catchup(sender, body.get("cursor"))
        else:
            self.history.join(sender, body, self._sbc)

    def _park_membership(self, message_topic: Topic, sender: ReplicaId, kind: str, body: Dict[str, Any]) -> None:
        """Fallback at ``("excl",)`` / ``("incl",)``, reached while no started
        consensus owns the deeper ``(root, epoch)`` prefix: this epoch's (a
        phase this replica has not reached) or a later one's is early
        traffic; a finished epoch has no consensus left to hear it.  A
        member's INIT to a finished inclusion consensus is answered with the
        records that prove its outcome (``DecisionLog.serve_change``)."""
        segments = message_topic.segments
        if len(segments) > 1 and type(segments[1]) is int and segments[1] >= self.epoch:
            self._early.park("membership", (message_topic, sender, kind, body))
            return
        self._early.drop("stale")
        if kind == "INIT" and segments[0] == "incl" and len(segments) > 1:
            self.history.serve_change(sender, segments[1])

    def _route_lazy_sbc(self, message_topic: Topic, sender: ReplicaId, kind: str, body: Dict[str, Any]) -> None:
        """Create consensus instances lazily when another replica started first.

        Fallback at ``("sbc",)``: only reached while no started instance owns
        the deeper ``("sbc", epoch, instance)`` prefix.
        """
        if self.standby or self.fault is FaultKind.BENIGN:
            return
        segments = message_topic.segments
        if len(segments) < 3:
            return
        epoch, instance = segments[1], segments[2]
        if not isinstance(epoch, int) or not isinstance(instance, int):
            return
        if epoch == self.epoch and instance in self.instances:
            if instance not in self._sbc and self.probe is not None:
                # Retired: every member confirmed it, nobody needs an answer.
                self.probe.count("asmr.retired_messages")
            return
        if epoch != self.epoch or instance > self.target_instances:
            # Early: a peer finished the membership change first, or its
            # driver (real sockets) budgets instances on its own clock.
            if epoch < self.epoch:
                self._early.drop("stale")
            elif epoch > self.epoch + 1 or (
                epoch == self.epoch and instance > self.target_instances + AHEAD_WINDOW
            ):
                self._early.drop("far")
            else:
                self._early.park("ahead", (message_topic, sender, kind, body))
            return
        # Catch up with the instance another replica already started.
        while self.next_instance <= instance:
            to_start = self.next_instance
            self.next_instance += 1
            if to_start not in self.instances:
                self._start_instance(to_start)
        if instance in self.instances:
            # Started above: the instance's own prefix now shadows this
            # fallback.  (When ``next_instance`` already moved past an
            # instance this replica never ran — a replica included mid-epoch
            # adopts the sender's view — the message is dropped, as before.)
            self.route(message_topic, sender, kind, body)
