"""Membership change — Algorithm 1 of the paper.

A membership change runs two consecutive consensus instances:

* the **exclusion consensus** decides a set of proofs of fraud (and hence a
  set of deceitful replicas to exclude).  It runs over the reduced committee
  ``C' = C \\ culprits(pofs)``: since at least ``ceil(n/3)`` deceitful replicas
  have already been identified before the change starts, the remaining
  deceitful ratio within ``C'`` is below one third and consensus is safe
  (Lemma .1 of the paper).
* the **inclusion consensus** decides which candidates from the pool replace
  the excluded replicas.  It runs over the updated committee ``C \\ excluded``
  and applies a deterministic ``choose`` function to the union of the decided
  proposals so that exactly ``|excluded|`` candidates join, picked evenly
  across proposals (Alg. 1 lines 41–48).

Honest replicas do not all start from the same PoFs: a replica whose first
conflicting confirmation proves exactly ``ceil(n/3)`` culprits starts with a
``C'`` that still contains the rest, and nobody else runs those members'
slots.  As in the paper (lines 23–27), ``C'`` therefore shrinks *while* the
exclusion consensus runs: :meth:`MembershipChange.learn_pofs` removes every
newly proven culprit from the restricted committee, drops its slot from the
running consensus and re-applies the thresholds.

A change knows no router.  The replica attaches the routes of the exclusion
consensus when it builds the change and those of the inclusion consensus on
``on_inclusion_started``, and detaches both when the change completes.
Inclusion traffic that reaches a replica before its own exclusion consensus
decided finds no route yet: the replica parks it and routes it again in that
callback.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.types import ReplicaId
from repro.consensus.host import ProtocolHost
from repro.consensus.proofs import ProofOfFraud
from repro.consensus.sbc import SBCDecision, SetByzantineConsensus
from repro.network.topic import topic
from repro.obs.core import Probe
from repro.smr.pool import CandidatePool


@dataclasses.dataclass
class MembershipOutcome:
    """Result of one completed membership change."""

    epoch: int
    excluded: List[ReplicaId]
    included: List[ReplicaId]
    exclusion_started_at: float
    exclusion_decided_at: float
    inclusion_decided_at: float

    @property
    def exclusion_duration(self) -> float:
        """Wall-clock (simulated) duration of the exclusion consensus."""
        return self.exclusion_decided_at - self.exclusion_started_at

    @property
    def inclusion_duration(self) -> float:
        """Wall-clock (simulated) duration of the inclusion consensus."""
        return self.inclusion_decided_at - self.exclusion_decided_at


def choose_included(
    count: int, decided_proposals: Sequence[Sequence[ReplicaId]]
) -> List[ReplicaId]:
    """The deterministic ``choose`` function of Alg. 1 line 44.

    Candidates are picked round-robin across the decided proposals (sorted for
    determinism) until ``count`` distinct candidates are selected, which
    distributes inclusions as evenly as possible across decisions.
    """
    ordered_proposals = [list(p) for p in sorted(decided_proposals, key=list)]
    chosen: List[ReplicaId] = []
    seen: Set[ReplicaId] = set()
    index = 0
    while len(chosen) < count:
        progressed = False
        for proposal in ordered_proposals:
            if index < len(proposal):
                candidate = proposal[index]
                progressed = True
                if candidate not in seen:
                    seen.add(candidate)
                    chosen.append(candidate)
                    if len(chosen) == count:
                        break
        if not progressed:
            break
        index += 1
    return chosen


def verified_pofs(
    host: ProtocolHost, payloads: Any, committee: Iterable[ReplicaId]
) -> Dict[ReplicaId, ProofOfFraud]:
    """The first proof of fraud in ``payloads`` that verifies, by culprit,
    for each culprit in ``committee``; anything else is skipped."""
    members = set(committee)
    found: Dict[ReplicaId, ProofOfFraud] = {}
    for payload in payloads if isinstance(payloads, list) else ():
        try:
            pof = ProofOfFraud.from_payload(payload)
        except (KeyError, TypeError, ValueError):
            continue
        if pof.culprit in members and pof.culprit not in found and pof.verify(host):
            found[pof.culprit] = pof
    return found


def excluded_by(
    host: ProtocolHost, decision: SBCDecision, committee: Iterable[ReplicaId]
) -> Dict[ReplicaId, ProofOfFraud]:
    """What an exclusion decision excludes from ``committee`` (Alg. 1 line
    29): the culprits of the proofs of fraud its decided proposals carry that
    verify.  Adopted-unvalidated slots (``SBCDecision.unvalidated_slots``)
    may carry any shape: only lists are read."""
    payloads = [
        payload
        for proposal in decision.decided_payloads()
        if isinstance(proposal, list)
        for payload in proposal
    ]
    return verified_pofs(host, payloads, committee)


def included_by(decision: SBCDecision, count: int) -> List[ReplicaId]:
    """What an inclusion decision includes: ``count`` candidates chosen from
    its decided proposals (Alg. 1 lines 41–48), screened to candidate ids —
    adopted-unvalidated slots bypass the proposal validator."""
    decided_lists = [
        [candidate for candidate in p if isinstance(candidate, int)]
        for p in decision.decided_payloads()
        if isinstance(p, list)
    ]
    return choose_included(count, decided_lists)


def next_committee(
    committee: Iterable[ReplicaId], excluded: Sequence[ReplicaId], included: Sequence[ReplicaId]
) -> Tuple[ReplicaId, ...]:
    """The committee after a change: ``committee`` in id order without the
    excluded replicas, then the included ones."""
    return tuple(
        [replica for replica in sorted(committee) if replica not in excluded] + list(included)
    )


class _RestrictedHost(ProtocolHost):
    """A host view restricted to the exclusion committee ``C'``.

    Thresholds (quorum sizes) inside the exclusion consensus must be computed
    over ``C'``, not over the full committee ``C`` — that is what makes the
    exclusion consensus safe despite ``d >= n/3`` (Lemma .1).
    """

    def __init__(self, base: ProtocolHost, committee: Iterable[ReplicaId]):
        self._base = base
        self._set_committee(committee)
        # The base's registry method itself, bound once; a base host without
        # the digest-first entry point leaves this one without it too
        # (``verify_vote`` discovers it by attribute lookup).
        verify_digest = getattr(base, "verify_digest", None)
        if verify_digest is not None:
            self.verify_digest = verify_digest
        # The restricted consensus reports metrics only: its trace events
        # would carry the epoch where ASMR instances carry the instance
        # number, aliasing instance ids on the Chrome trace.
        probe = base.probe
        if probe is not None and probe.metrics is not None:
            self.probe = Probe(metrics=probe.metrics)

    @property
    def replica_id(self) -> ReplicaId:
        return self._base.replica_id

    def committee(self) -> Sequence[ReplicaId]:
        return list(self._committee)

    def remove(self, members: Iterable[ReplicaId]) -> None:
        """Shrink the view; ``quorum`` and ``support`` are re-assigned with it."""
        gone = set(members)
        self._set_committee(m for m in self._committee if m not in gone)

    @property
    def now(self) -> float:
        return self._base.now

    def schedule(self, delay: float, callback) -> int:
        return self._base.schedule(delay, callback)

    def sign(self, payload: Any, digest: Optional[str] = None):
        return self._base.sign(payload, digest)

    def verify(self, payload: Any, signed) -> bool:
        return self._base.verify(payload, signed)

    @property
    def verification_token(self):
        return getattr(self._base, "verification_token", None)

    def emit(self, protocol, kind, body, recipients=None):
        targets = list(recipients) if recipients is not None else list(self._committee)
        self._base.emit(protocol, kind, body, recipients=targets)

    def emit_to(self, recipient, protocol, kind, body):
        self._base.emit_to(recipient, protocol, kind, body)


class MembershipChange:
    """One epoch of exclusion + inclusion consensus at a single replica."""

    def __init__(
        self,
        host: ProtocolHost,
        epoch: int,
        committee: Sequence[ReplicaId],
        pofs: Dict[ReplicaId, ProofOfFraud],
        pool: CandidatePool,
        on_complete: Callable[[MembershipOutcome], None],
        on_inclusion_started: Callable[[], None],
    ):
        self.host = host
        self.epoch = epoch
        self.initial_committee = sorted(committee)
        self.pofs = dict(pofs)
        self.pool = pool
        self.on_complete = on_complete
        #: Called once ``inclusion`` exists and has proposed: the caller
        #: attaches its routes.
        self.on_inclusion_started = on_inclusion_started
        self.started_at = host.now
        self.exclusion_decided_at: Optional[float] = None
        self.outcome: Optional[MembershipOutcome] = None
        self.excluded: List[ReplicaId] = []
        self.included: List[ReplicaId] = []
        #: What a joiner proves the completed change by: both decisions as
        #: records with their proposals, and a proof of fraud for every
        #: member of ``C`` the exclusion consensus ran without (see
        #: "Catch-up" in :mod:`repro.smr.log`).
        self.records: Optional[Dict[str, Any]] = None

        # C' = C \ culprits already identified locally (Alg. 1 line 20).
        self.exclusion_committee = [
            replica for replica in self.initial_committee if replica not in self.pofs
        ]
        self._exclusion_host = _RestrictedHost(host, self.exclusion_committee)
        self.exclusion = SetByzantineConsensus(
            host=self._exclusion_host,
            instance=epoch,
            on_decide=self._on_exclusion_decided,
            proposal_validator=self._validate_exclusion_proposal,
            protocol_prefix=topic("excl"),
        )
        self.inclusion: Optional[SetByzantineConsensus] = None
        self._inclusion_host: Optional[_RestrictedHost] = None

    # -- exclusion consensus -------------------------------------------------------

    def start(self) -> None:
        """Propose this replica's PoF set to the exclusion consensus."""
        proposal = [pof.to_payload() for _, pof in sorted(self.pofs.items())]
        self.exclusion.propose(proposal)

    def learn_pofs(self, pofs: Dict[ReplicaId, ProofOfFraud]) -> None:
        """Alg. 1 lines 23–27: culprits proven while the exclusion consensus
        runs leave ``C'``, and every threshold is checked again."""
        if self.exclusion.decided:
            return
        culprits = [member for member in self.exclusion_committee if member in pofs]
        if not culprits:
            return
        for culprit in culprits:
            self.pofs[culprit] = pofs[culprit]
            self.exclusion_committee.remove(culprit)
        self._exclusion_host.remove(culprits)
        self.exclusion.drop_slots(culprits)

    def _validate_exclusion_proposal(self, proposer: ReplicaId, value: Any) -> bool:
        """Exclusion proposals must be lists of valid PoFs on current members."""
        if not isinstance(value, list) or not value:
            return False
        for payload in value:
            try:
                pof = ProofOfFraud.from_payload(payload)
            except (KeyError, TypeError, ValueError):
                return False
            if not pof.verify(self.host):
                return False
            if pof.culprit not in self.initial_committee:
                return False
        return True

    def _on_exclusion_decided(self, decision: SBCDecision) -> None:
        self.exclusion_decided_at = self.host.now
        probe = self.host.probe
        if probe is not None:
            probe.observe(
                "membership.exclusion_s", self.exclusion_decided_at - self.started_at
            )
        culprits = excluded_by(self.host, decision, self.initial_committee)
        for culprit, pof in culprits.items():
            self.pofs.setdefault(culprit, pof)
        self.excluded = sorted(culprits)
        self._start_inclusion()

    # -- inclusion consensus -----------------------------------------------------------

    def _start_inclusion(self) -> None:
        updated_committee = [
            replica for replica in self.initial_committee if replica not in self.excluded
        ]
        self._inclusion_host = _RestrictedHost(self.host, updated_committee)
        self.inclusion = SetByzantineConsensus(
            host=self._inclusion_host,
            instance=self.epoch,
            on_decide=self._on_inclusion_decided,
            proposal_validator=self._validate_inclusion_proposal,
            protocol_prefix=topic("incl"),
        )
        proposal = self.pool.take(len(self.excluded))
        self.inclusion.propose(list(proposal))
        self.on_inclusion_started()

    def _validate_inclusion_proposal(self, proposer: ReplicaId, value: Any) -> bool:
        """Inclusion proposals must be lists of available pool candidates."""
        if not isinstance(value, list):
            return False
        if len(value) > max(len(self.excluded), len(self.initial_committee)):
            return False
        return all(isinstance(candidate, int) for candidate in value)

    def _on_inclusion_decided(self, decision: SBCDecision) -> None:
        exclusion = self.exclusion.decision
        left_out = [member for member in self.initial_committee if member not in exclusion.bitmask]
        self._complete(included_by(decision, len(self.excluded)), {
            "exclusion": exclusion.to_record(self.epoch, proposals=True),
            "inclusion": decision.to_record(self.epoch, proposals=True),
            "pofs": [self.pofs[member].to_payload() for member in left_out],
        })  # fmt: skip

    def complete_from(
        self, excluded: List[ReplicaId], included: List[ReplicaId], records: Dict[str, Any]
    ) -> None:
        """Complete with the outcome a peer's ``records`` of this change
        prove (:meth:`~repro.smr.log.DecisionLog.join`): the consensus this
        replica still runs is one its peers finished."""
        if self.exclusion_decided_at is None:
            self.exclusion_decided_at = self.host.now
        self.excluded = list(excluded)
        self._complete(list(included), records)

    def _complete(self, included: List[ReplicaId], records: Dict[str, Any]) -> None:
        self.records = records
        self.included = included
        self.pool.mark_included(self.included)
        assert self.exclusion_decided_at is not None
        probe = self.host.probe
        if probe is not None:
            probe.observe(
                "membership.inclusion_s", self.host.now - self.exclusion_decided_at
            )
            probe.count("membership.excluded_replicas", len(self.excluded))
            probe.count("membership.included_replicas", len(self.included))
        self.outcome = MembershipOutcome(
            epoch=self.epoch,
            excluded=list(self.excluded),
            included=list(self.included),
            exclusion_started_at=self.started_at,
            exclusion_decided_at=self.exclusion_decided_at,
            inclusion_decided_at=self.host.now,
        )
        self.on_complete(self.outcome)
