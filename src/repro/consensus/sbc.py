"""Set Byzantine Consensus (SBC) via the reduction to binary consensus.

Following §2.3 of the paper (and Red Belly / Polygraph), one SBC instance runs:

* ``n`` reliable broadcasts, one per committee member's proposal;
* ``n`` binary consensus instances, one per proposal slot, deciding whether
  the corresponding proposal makes it into the decided set;
* slots whose reliable broadcast delivered start their binary consensus with
  input 1; once ``n − f`` proposals have been delivered locally, the remaining
  slots start with input 0;
* the decision is the union of the proposals at slots whose binary consensus
  decided 1.

With accountability enabled (always, in this implementation) every ECHO,
READY, AUX and DECIDE is a signed vote; the :class:`SBCDecision` carries the
per-slot decision certificates plus all collected votes (the *justification*)
so that conflicting decisions can be cross-checked into proofs of fraud during
the confirmation phase.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.types import ReplicaId, byzantine_tolerance
from repro.consensus.binary import BinaryConsensus, value_digest
from repro.consensus.certificates import (
    Certificate,
    SignedVote,
    VoteKind,
    certificate_from_payload,
)
from repro.consensus.host import ProtocolHost
from repro.crypto.hashing import hash_payload
from repro.network.router import Handler, Router
from repro.network.topic import Topic, TopicLike, as_topic
from repro.rbc.bracha import ReliableBroadcast

#: Validates a delivered proposal; invalid proposals are treated as absent.
ProposalValidator = Callable[[ReplicaId, Any], bool]

#: Callback signature: (decision)
SBCDecideCallback = Callable[["SBCDecision"], None]


@dataclasses.dataclass
class SBCDecision:
    """The outcome of one SBC instance at one replica.

    Attributes:
        instance: the ASMR consensus index.
        bitmask: slot -> 0/1 binary decision.
        proposals: slot -> proposal payload, for slots decided 1.
        proposal_digests: slot -> digest of that payload — the digest its
            reliable broadcast delivered under; hashed here only for a
            decision built without them.
        binary_certificates: slot -> quorum certificate justifying the bit.
        rbc_certificates: slot -> quorum of READY votes justifying the delivered
            proposal content (only for slots decided 1).
        justification_votes: every signed vote collected while deciding; used
            by the confirmation phase to extract proofs of fraud when two
            replicas end up with conflicting decisions.  Narrowed to
            :func:`~repro.consensus.proofs.accountable_votes` when the
            replica retires the instance.
        decided_at: simulated time of the local decision.
    """

    instance: int
    bitmask: Dict[ReplicaId, int]
    proposals: Dict[ReplicaId, Any]
    binary_certificates: Dict[ReplicaId, Certificate]
    justification_votes: List[SignedVote]
    rbc_certificates: Dict[ReplicaId, Certificate] = dataclasses.field(
        default_factory=dict
    )
    decided_at: float = 0.0
    #: Slots whose payload the *local* validator rejected but the committee
    #: decided 1 for anyway (stateful validators can disagree across branches).
    #: Consumers that rely on the "decided payloads passed my validator"
    #: invariant — e.g. a commit path skipping signature re-verification —
    #: must re-screen these payloads in full.
    unvalidated_slots: Tuple[ReplicaId, ...] = ()
    proposal_digests: Dict[ReplicaId, str] = dataclasses.field(default_factory=dict)
    #: Memoised digest — a decision is immutable once built, and the digest is
    #: re-read on every confirmation exchange (a hot path at large n).
    _digest: Optional[str] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        digests = self.proposal_digests
        for slot, value in self.proposals.items():
            if slot not in digests:
                digests[slot] = hash_payload(value)

    @property
    def digest(self) -> str:
        """Canonical digest of the decided set (order-independent per slot)."""
        digest = self._digest
        if digest is None:
            included = sorted(
                (slot, self.proposal_digests[slot])
                for slot, bit in self.bitmask.items()
                if bit == 1
            )
            digest = hash_payload(["sbc-decision", self.instance, included])
            self._digest = digest
        return digest

    def included_slots(self) -> List[ReplicaId]:
        """Slots whose proposals are part of the decision, in slot order."""
        return sorted(slot for slot, bit in self.bitmask.items() if bit == 1)

    def decided_payloads(self) -> List[Any]:
        """The decided proposals in slot order."""
        return [self.proposals[slot] for slot in self.included_slots()]

    def conflicts_with(self, other: "SBCDecision") -> bool:
        """True when the two decisions are for the same instance but differ."""
        return self.instance == other.instance and self.digest != other.digest

    def to_record(self, epoch: int, proposals: bool = False) -> Dict[str, Any]:
        """The decision as a peer reads it: the body of a CONFIRM and, with
        ``proposals``, the answer to a fetch (:func:`decision_from_record`
        reads it back).  ``epoch`` is the epoch the instance was decided in."""
        record = {
            "instance": self.instance,
            "digest": self.digest,
            "bitmask": dict(self.bitmask),
            "proposal_digests": dict(self.proposal_digests),
            "binary_certificates": {
                slot: cert.to_payload() for slot, cert in self.binary_certificates.items()
            },
            "rbc_certificates": {
                slot: cert.to_payload() for slot, cert in self.rbc_certificates.items()
            },
            "epoch": epoch,
        }
        if proposals:
            record["proposals"] = dict(self.proposals)
        return record


def verified_certificates(
    host: ProtocolHost, payloads: Any, committee: Sequence[ReplicaId]
) -> Optional[Dict[ReplicaId, Certificate]]:
    """Parse a peer's ``slot -> certificate`` map and verify every entry
    against ``committee``; None as soon as one does not parse or verify."""
    if type(payloads) is not dict:
        return None
    certificates: Dict[ReplicaId, Certificate] = {}
    for slot, payload in payloads.items():
        try:
            certificate = certificate_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return None
        if not certificate.is_valid(host, committee):
            return None
        certificates[slot] = certificate
    return certificates


def decision_from_record(
    host: ProtocolHost,
    record: Dict[str, Any],
    committee: Sequence[ReplicaId],
    topic: Topic,
) -> Optional[SBCDecision]:
    """The decision a peer's record (:meth:`SBCDecision.to_record` with
    proposals) proves, or None when it proves nothing.

    ``topic`` is the instance's SBC topic (``("sbc", epoch, instance)``) and
    ``committee`` the committee that ran it.  The record proves its decision
    when every slot of the committee has a binary certificate for its bit,
    every included slot an RBC certificate for its proposal digest — all
    under the instance's contexts and valid against ``committee`` — every
    included proposal hashes to its digest, and the digest recomputed from
    bitmask and proposal digests is the record's.  The certificates' votes
    are the decision's justification: what a retired decision keeps.  No
    included payload passed the local validator, so every slot is
    ``unvalidated``.
    """
    bitmask = record.get("bitmask")
    digests = record.get("proposal_digests")
    proposals = record.get("proposals")
    if type(bitmask) is not dict or type(digests) is not dict or type(proposals) is not dict:
        return None
    if set(bitmask) != set(committee):
        return None
    binary = verified_certificates(host, record.get("binary_certificates"), committee)
    ready = verified_certificates(host, record.get("rbc_certificates"), committee)
    included = sorted(slot for slot, bit in bitmask.items() if bit == 1)
    if binary is None or ready is None or set(binary) != set(bitmask):
        return None
    if set(ready) != set(included) or set(digests) != set(included):
        return None
    justification: List[SignedVote] = []
    for slot, bit in bitmask.items():
        certificate = binary[slot]
        if (
            type(bit) is not int
            or bit not in (0, 1)
            or certificate.kind is not VoteKind.AUX
            or certificate.context != topic.child("bin", slot).canonical
            or certificate.value_digest != value_digest(bit)
        ):
            return None
        justification += certificate.votes
    for slot in included:
        certificate = ready[slot]
        if (
            slot not in proposals
            or certificate.kind is not VoteKind.RBC_READY
            or certificate.context != topic.child("rbc", slot).canonical
            or certificate.value_digest != digests[slot]
            or hash_payload(proposals[slot]) != digests[slot]
        ):
            return None
        justification += certificate.votes
    decision = SBCDecision(
        instance=record.get("instance"),
        bitmask=dict(bitmask),
        proposals={slot: proposals[slot] for slot in included},
        binary_certificates=binary,
        justification_votes=justification,
        rbc_certificates=ready,
        decided_at=host.now,
        unvalidated_slots=tuple(included),
        proposal_digests=dict(digests),
    )
    if decision.digest != record.get("digest"):
        return None
    return decision


class SetByzantineConsensus:
    """One SBC instance; hosts its reliable broadcasts and binary consensuses."""

    def __init__(
        self,
        host: ProtocolHost,
        instance: int,
        on_decide: SBCDecideCallback,
        proposal_validator: Optional[ProposalValidator] = None,
        protocol_prefix: TopicLike = "sbc",
        zero_phase_grace: float = 0.05,
        phase_marks: Optional[List[float]] = None,
    ):
        self.host = host
        self.instance = instance
        self.on_decide = on_decide
        self.proposal_validator = proposal_validator
        #: Grace period between reaching n - f local deliveries and voting 0 on
        #: the still-missing slots; gives slightly slower proposers a chance so
        #: the common all-honest case includes every proposal (SBC throughput).
        self.zero_phase_grace = zero_phase_grace
        #: Base topic of the instance, e.g. ``("sbc", epoch, instance)`` or
        #: ``("excl", epoch)``; sub-component topics extend it with
        #: ``("rbc"|"bin", slot)``.
        self.topic: Topic = as_topic(protocol_prefix).child(instance)
        #: Where :meth:`attach` registered the instance's routes, until
        #: :meth:`detach`.
        self._router: Optional[Router] = None
        # Instrumentation (None when off); the SBC latency runs from instance
        # creation (the replica starts the instance when it proposes or first
        # hears of it) to local decision.
        self._probe = host.probe
        self._created_at = host.now
        #: ``[start, last RBC delivery, last binary decision]`` of the ASMR
        #: instance this SBC decides, moved forward as slots deliver and
        #: decide (instrumented ASMR instances only; see ``ASMRReplica``).
        self.phase_marks = phase_marks
        # The instance span opens under the active context — the proposer's
        # root span, or the delivery span of whatever message caused a lazy
        # start — and closes at the decision.
        self._span = None
        if self._probe is not None:
            self._span = self._probe.start_span(
                "sbc", host.replica_id, self._created_at, instance=instance
            )
        self.slots: Tuple[ReplicaId, ...] = tuple(sorted(host.committee()))
        self.decided = False
        self.decision: Optional[SBCDecision] = None
        self._proposals: Dict[ReplicaId, Any] = {}
        #: Deliveries the local validator rejected, kept as (value, rbc_cert):
        #: adopted into the decision only if the committee decides 1 anyway.
        self._rejected_proposals: Dict[ReplicaId, Tuple[Any, Certificate]] = {}
        #: Slots adopted from ``_rejected_proposals`` — instance state, not a
        #: completion-pass local: an adoption can happen on a pass that still
        #: returns early (another slot's RBC pending), and the flag must
        #: survive into whichever later pass finally builds the decision.
        self._adopted_slots: Set[ReplicaId] = set()
        self._bits: Dict[ReplicaId, int] = {}
        self._binary_certs: Dict[ReplicaId, Certificate] = {}
        self._rbc_certs: Dict[ReplicaId, Certificate] = {}
        self._rbc: Dict[ReplicaId, ReliableBroadcast] = {}
        self._binary: Dict[ReplicaId, BinaryConsensus] = {}
        self._zero_phase_started = False
        base = self.topic
        for slot in self.slots:
            self._rbc[slot] = ReliableBroadcast(
                host=host,
                context=base.child("rbc", slot),
                proposer=slot,
                on_deliver=self._on_rbc_deliver,
            )
            self._binary[slot] = BinaryConsensus(
                host=host,
                context=base.child("bin", slot),
                # Bind the slot at construction time: no context scan needed
                # when the instance decides.
                on_decide=(
                    lambda _context, value, certificate, slot=slot: (
                        self._on_binary_decide(slot, value, certificate)
                    )
                ),
            )

    # -- API -------------------------------------------------------------------------

    def propose(self, payload: Any) -> None:
        """Reliably broadcast this replica's proposal for the instance."""
        slot = self.host.replica_id
        if slot in self._rbc:
            self._rbc[slot].broadcast(payload)

    def waits_for_proposals(self) -> bool:
        """Every binary consensus decided; a slot decided 1 lacks its proposal."""
        bits = self._bits
        return len(bits) == len(self.slots) and any(
            bit == 1
            and slot not in self._proposals
            and slot not in self._rejected_proposals
            for slot, bit in bits.items()
        )

    # -- routing -------------------------------------------------------------------

    def routes(self) -> Iterator[Tuple[Topic, Handler]]:
        """The instance's routes: every component under its own topic, and
        the instance prefix as the fallback for what no component owns."""
        yield self.topic, self.handle
        for components in (self._rbc, self._binary):
            for component in components.values():
                yield component.topic, component.handle

    def attach(self, router: Router) -> None:
        """Register :meth:`routes` with ``router``: a message then reaches its
        component in one lookup.  The instance alone adds and removes them."""
        self._router = router
        for route, handler in self.routes():
            router.register(route, handler)

    def detach(self) -> None:
        """Remove exactly what :meth:`attach` registered and is still there."""
        router, self._router = self._router, None
        if router is not None:
            for route, _ in self.routes():
                router.unregister(route)

    def handle(self, topic: Topic, sender: ReplicaId, kind: str, body: Dict[str, Any]) -> None:
        """The instance prefix's handler: a topic under it that no component
        owns — an unknown layer, an unknown or dropped slot — is dropped.
        A method rather than a no-op lambda only because
        ``zlbbench/trace.py::_targets`` rebinds it by name."""

    def drop_slots(self, slots: Iterable[ReplicaId]) -> None:
        """The host's committee lost ``slots`` (the exclusion consensus
        shrinks while it runs, Alg. 1 lines 23–27): forget their broadcasts
        and binary instances — their routes go with them, so what is still
        sent to one falls to :meth:`handle` — and their votes in the others,
        and re-apply every threshold to what is left."""
        if self.decided:
            return
        gone = set(slots)
        self.slots = tuple(slot for slot in self.slots if slot not in gone)
        for components in (self._rbc, self._binary):
            for slot in gone:
                component = components.pop(slot, None)
                if component is not None and self._router is not None:
                    self._router.unregister(component.topic)
        for per_slot in (
            self._bits,
            self._proposals,
            self._rejected_proposals,
            self._binary_certs,
            self._rbc_certs,
        ):
            for slot in gone:
                per_slot.pop(slot, None)
        self._adopted_slots -= gone
        for slot in self.slots:
            for component in (self._rbc[slot], self._binary[slot]):
                component.forget(gone)
                component.recheck()
        self._maybe_start_zero_phase()
        self._maybe_complete()

    # -- sub-component callbacks --------------------------------------------------------

    def _on_rbc_deliver(self, proposer: ReplicaId, value: Any, certificate: Certificate) -> None:
        if self.phase_marks is not None:
            self.phase_marks[1] = self.host.now
        if self.proposal_validator is not None and not self.proposal_validator(
            proposer, value
        ):
            # Do not endorse the proposal (this replica never votes 1 for it),
            # but retain the delivered content: validators can be stateful
            # (branch-relative execution checks), so a quorum whose state
            # differs may still decide 1 for the slot — the decision must then
            # complete here too, and the commit path's execution screening
            # deterministically drops whatever does not apply.  Without this,
            # a decided-1 slot whose only RBC delivery was rejected would
            # stall the instance forever.
            if proposer not in self._proposals and proposer not in self._rejected_proposals:
                self._rejected_proposals[proposer] = (value, certificate)
                self._maybe_complete()
            return
        if proposer in self._proposals:
            return
        self._proposals[proposer] = value
        self._rbc_certs[proposer] = certificate
        binary = self._binary[proposer]
        if not binary.started:
            binary.propose(1)
        self._maybe_start_zero_phase()
        self._maybe_complete()

    def _maybe_start_zero_phase(self) -> None:
        """Once n − f proposals are in, vote 0 on every slot still unseen."""
        if self._zero_phase_started:
            return
        n = len(self.slots)
        threshold = n - byzantine_tolerance(n)
        if len(self._proposals) < threshold:
            return
        self._zero_phase_started = True
        if self.zero_phase_grace > 0:
            self.host.schedule(self.zero_phase_grace, self._vote_zero_on_missing)
        else:
            self._vote_zero_on_missing()

    def _vote_zero_on_missing(self) -> None:
        for slot in self.slots:
            binary = self._binary[slot]
            if not binary.started:
                binary.propose(0)

    def _on_binary_decide(self, slot: ReplicaId, value: int, certificate: Certificate) -> None:
        if slot in self._bits:
            return
        if self.phase_marks is not None:
            self.phase_marks[2] = self.host.now
        self._bits[slot] = value
        self._binary_certs[slot] = certificate
        self._maybe_complete()

    # -- completion ------------------------------------------------------------------------

    def _maybe_complete(self) -> None:
        if self.decided:
            return
        if len(self._bits) < len(self.slots):
            return
        if all(bit == 0 for bit in self._bits.values()):
            # SBC never decides the empty set: at least one slot must carry a
            # proposal.  This can only transiently happen while late RBC
            # deliveries are still pending, so keep waiting.
            return
        for slot, bit in self._bits.items():
            if bit == 1 and slot not in self._proposals:
                if slot in self._rejected_proposals:
                    # The committee decided 1 despite our validator rejecting
                    # the delivery (stateful validators may disagree across
                    # branches): adopt the content so the decision completes.
                    # The slot is flagged as unvalidated on the decision —
                    # consumers must re-screen it (shape, signatures,
                    # execution) rather than trust the usual invariant.
                    value, certificate = self._rejected_proposals.pop(slot)
                    self._proposals[slot] = value
                    self._rbc_certs[slot] = certificate
                    self._adopted_slots.add(slot)
                    continue
                # The proposal content has not reached us yet; wait for the
                # reliable broadcast to deliver it.
                return
        justification: List[SignedVote] = []
        for slot in self.slots:
            justification.extend(self._binary[slot].collected_votes)
            if self._bits[slot] == 1:
                justification.extend(self._rbc[slot].collected_votes)
        self.decided = True
        probe = self._probe
        if probe is not None:
            now = self.host.now
            included = sum(1 for bit in self._bits.values() if bit == 1)
            probe.count("consensus.sbc.decided")
            probe.observe("consensus.sbc.decide_s", now - self._created_at)
            probe.observe("consensus.sbc.included_slots", included)
            probe.observe("consensus.sbc.justification_votes", len(justification))
            probe.event(
                "sbc.decide",
                self.host.replica_id,
                now,
                instance=self.instance,
                included=included,
            )
            probe.finish(self._span, now)
        self.decision = SBCDecision(
            instance=self.instance,
            bitmask=dict(self._bits),
            proposals={
                slot: self._proposals[slot]
                for slot, bit in self._bits.items()
                if bit == 1
            },
            binary_certificates=dict(self._binary_certs),
            justification_votes=justification,
            rbc_certificates={
                slot: cert
                for slot, cert in self._rbc_certs.items()
                if self._bits.get(slot) == 1
            },
            decided_at=self.host.now,
            unvalidated_slots=tuple(sorted(self._adopted_slots)),
            proposal_digests={
                slot: self._rbc[slot].delivered_digest
                for slot, bit in self._bits.items()
                if bit == 1
            },
        )
        self.on_decide(self.decision)
