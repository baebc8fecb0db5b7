"""Proofs of fraud (PoFs).

A proof of fraud is a pair of signed votes from the same replica, for the same
protocol step (context, round, kind), carrying different values — undeniable
evidence of equivocation.  Honest replicas never produce such pairs (the only
step where voting for two values is legitimate, BVAL of the BV-broadcast, is
excluded from the vote kinds tracked here), so PoFs only ever implicate
deceitful replicas.

During the confirmation phase and the membership change, replicas cross-check
the certificates they received from different partitions; the votes inside
conflicting certificates are fed to :func:`extract_pofs_from_votes`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Container, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.types import ReplicaId
from repro.consensus.certificates import (
    SignedVote,
    VoteKind,
    verify_vote,
    vote_from_payload,
)


@dataclasses.dataclass(frozen=True)
class ProofOfFraud:
    """Two conflicting signed votes from the same replica."""

    culprit: ReplicaId
    first: SignedVote
    second: SignedVote

    def is_well_formed(self) -> bool:
        """Structural check: the two votes genuinely conflict and blame ``culprit``."""
        return (
            self.first.conflicts_with(self.second)
            and self.first.signer == self.culprit
        )

    def verify(self, verifier: Any) -> bool:
        """Full check: structure plus both signatures."""
        return (
            self.is_well_formed()
            and verify_vote(self.first, verifier)
            and verify_vote(self.second, verifier)
        )

    def to_payload(self) -> Tuple[Any, ...]:
        """Wire tuple ``(culprit, first, second)``, each vote as its own tuple
        (:meth:`SignedVote.to_payload`)."""
        return (self.culprit, self.first.to_payload(), self.second.to_payload())

    @staticmethod
    def from_payload(payload: Tuple[Any, ...]) -> "ProofOfFraud":
        """Inverse of :meth:`to_payload`; ``TypeError`` / ``ValueError`` for
        any other shape, like :func:`vote_from_payload`."""
        if type(payload) is not tuple:
            raise TypeError("proof-of-fraud payload is not a tuple")
        culprit, first, second = payload
        if type(culprit) is not int:
            hash(culprit)  # culprits key dicts: an unhashable one is a TypeError
        return ProofOfFraud(
            culprit, vote_from_payload(first), vote_from_payload(second)
        )


#: Grouping key of a vote: one entry per (signer, context, round, kind).
VoteGroupKey = Tuple[ReplicaId, str, int, str]


class GroupedVotes(Dict[VoteGroupKey, Dict[str, SignedVote]]):
    """Votes grouped for equivocation checks: key -> first vote seen per digest.

    ``equivocating`` lists the keys whose group holds two digests on its own,
    found while grouping, so that a cross-check against another set
    (:func:`extract_pofs_from_grouped`) never rescans this one for them.
    """

    __slots__ = ("equivocating",)

    def __init__(self) -> None:
        super().__init__()
        self.equivocating: List[VoteGroupKey] = []


def group_votes(votes: Iterable[SignedVote]) -> GroupedVotes:
    """Group ``votes`` by (signer, context, round, kind), first per digest.

    The insertion order of the groups matches the vote order, which
    :func:`extract_pofs_from_grouped` relies on to pick the same PoF votes
    as the flat :func:`extract_pofs_from_votes` scan.
    """
    grouped = GroupedVotes()
    equivocating = grouped.equivocating
    for vote in votes:
        # ``_value_``: the member's own attribute, not the two-frame descriptor.
        key = (vote.signer, vote.context, vote.round, vote.kind._value_)
        by_value = grouped.get(key)
        if by_value is None:
            grouped[key] = {vote.value_digest: vote}
        elif vote.value_digest not in by_value:
            by_value[vote.value_digest] = vote
            if len(by_value) == 2:
                equivocating.append(key)
    return grouped


def accountable_votes(votes: Sequence[SignedVote]) -> List[SignedVote]:
    """What a decision's justification keeps once its instance retired.

    A CONFIRM is cross-checked through the AUX votes of its binary
    certificates and the READY votes of its RBC certificates only, so a local
    vote of another kind can take part in a proof of fraud only inside a group
    that equivocates on its own.  Keeping every AUX and READY vote and every
    vote of such a group, in order, leaves :func:`extract_pofs_from_grouped`
    the same result against any CONFIRM — the same groups conflict, in the
    same order, holding the same votes.
    """
    kept = (VoteKind.AUX, VoteKind.RBC_READY)
    # A group is one kind's: only the other kinds need grouping.
    equivocating = set(
        group_votes([vote for vote in votes if vote.kind not in kept]).equivocating
    )
    return [
        vote
        for vote in votes
        if vote.kind in kept
        or (vote.signer, vote.context, vote.round, vote.kind._value_) in equivocating
    ]


def _pof_from_group(signer: ReplicaId, by_value: Dict[str, SignedVote]) -> ProofOfFraud:
    values = sorted(by_value)
    return ProofOfFraud(
        culprit=signer, first=by_value[values[0]], second=by_value[values[1]]
    )


def extract_pofs_from_votes(votes: Iterable[SignedVote]) -> List[ProofOfFraud]:
    """Cross-check votes and return one PoF per equivocating replica.

    Votes are grouped by (signer, context, round, kind); any group containing
    two distinct value digests yields a PoF.  At most one PoF per culprit is
    returned (the paper only needs to identify the replica once).
    """
    pofs: Dict[ReplicaId, ProofOfFraud] = {}
    for (signer, _, _, _), by_value in group_votes(votes).items():
        if signer in pofs:
            continue
        if len(by_value) >= 2:
            pofs[signer] = _pof_from_group(signer, by_value)
    return [pofs[culprit] for culprit in sorted(pofs)]


def extract_pofs_from_grouped(
    first: GroupedVotes,
    second: GroupedVotes,
    skip: Container[ReplicaId] = frozenset(),
) -> List[ProofOfFraud]:
    """:func:`extract_pofs_from_votes` over two pre-grouped vote sets.

    Equivalent to the flat scan over the concatenation *first votes then
    second votes*: a culprit's PoF comes from its earliest conflicting group
    (first's keys in order, then second-only keys) and first's vote wins a
    digest seen in both, the setdefault semantics exactly.  The hot CONFIRM
    path groups each side once (the local justification per decision, the
    remote certificates per broadcast body) and ``first`` is the large side,
    so only ``second`` is scanned: a group conflicts after the merge when it
    already did on its own side (``equivocating``) or when ``second`` brings
    a digest ``first`` lacks.  The two sets are then walked — no lookup —
    only until every culprit found has met its earliest conflicting group.

    ``skip`` drops culprits that already have a PoF (per-signer selection is
    independent, so this cannot change which *new* culprits are found).
    """
    conflicting: Set[VoteGroupKey] = {
        key
        for side in (first, second)
        for key in side.equivocating
        if key[0] not in skip
    }
    for key, theirs in second.items():
        if key[0] in skip:
            continue
        mine = first.get(key)
        if mine is not None:
            for digest in theirs:
                if digest not in mine:
                    conflicting.add(key)
                    break
    pofs: Dict[ReplicaId, ProofOfFraud] = {}
    # Culprits still owed their earliest conflicting group.
    pending = {key[0] for key in conflicting}
    for side in (first, second):
        for key in side:
            if not pending:
                break
            signer = key[0]
            if signer in pending and key in conflicting:
                pofs[signer] = _pof_from_group(
                    signer, {**second.get(key, {}), **first.get(key, {})}
                )
                pending.remove(signer)
    return [pofs[culprit] for culprit in sorted(pofs)]


def merge_pofs(
    existing: Dict[ReplicaId, ProofOfFraud],
    new_pofs: Iterable[ProofOfFraud],
    verifier: Optional[Any] = None,
) -> List[ProofOfFraud]:
    """Merge freshly received PoFs into ``existing`` (keyed by culprit).

    Returns the list of PoFs that were actually new (``new_pofs`` in Alg. 1,
    line 15).  When a ``verifier`` is provided, invalid PoFs are ignored
    (Alg. 1 line 14: ``verify(pofs)``).
    """
    added: List[ProofOfFraud] = []
    for pof in new_pofs:
        if verifier is not None and not pof.verify(verifier):
            continue
        if verifier is None and not pof.is_well_formed():
            continue
        if pof.culprit not in existing:
            existing[pof.culprit] = pof
            added.append(pof)
    return added


def culprits(pofs: Iterable[ProofOfFraud]) -> Set[ReplicaId]:
    """The set of replicas incriminated by ``pofs``."""
    return {pof.culprit for pof in pofs}
