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
    Certificate,
    SignedVote,
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

#: Votes grouped for equivocation checks: key -> first vote seen per digest.
GroupedVotes = Dict[VoteGroupKey, Dict[str, SignedVote]]


def group_votes(votes: Iterable[SignedVote]) -> GroupedVotes:
    """Group ``votes`` by (signer, context, round, kind), first per digest.

    The insertion order of both levels matches the vote order, which
    :func:`extract_pofs_from_grouped` relies on to pick the same PoF votes
    as the flat :func:`extract_pofs_from_votes` scan.
    """
    grouped: GroupedVotes = {}
    for vote in votes:
        key = (vote.signer, vote.context, vote.round, vote.kind.value)
        grouped.setdefault(key, {}).setdefault(vote.value_digest, vote)
    return grouped


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
    second votes* — group order (first's keys in order, then second-only
    keys) and per-digest vote selection (first's vote wins a digest seen in
    both) reproduce the setdefault semantics exactly.  The hot CONFIRM path
    uses this to group each side once (the local justification per decision,
    the remote certificates per broadcast body) instead of re-grouping their
    concatenation for every recipient.

    ``skip`` drops culprits that already have a PoF (per-signer selection is
    independent, so this cannot change which *new* culprits are found).
    """
    pofs: Dict[ReplicaId, ProofOfFraud] = {}
    for key, by_value in first.items():
        signer = key[0]
        if signer in skip or signer in pofs:
            continue
        extra = second.get(key)
        if extra:
            merged = dict(by_value)
            for digest, vote in extra.items():
                merged.setdefault(digest, vote)
        else:
            merged = by_value
        if len(merged) >= 2:
            pofs[signer] = _pof_from_group(signer, merged)
    for key, by_value in second.items():
        signer = key[0]
        if signer in skip or signer in pofs or key in first:
            continue
        if len(by_value) >= 2:
            pofs[signer] = _pof_from_group(signer, by_value)
    return [pofs[culprit] for culprit in sorted(pofs)]


def extract_pofs_from_certificates(
    certificates: Iterable[Certificate],
) -> List[ProofOfFraud]:
    """Extract PoFs from the union of the votes of several certificates."""
    votes: List[SignedVote] = []
    for certificate in certificates:
        votes.extend(certificate.votes)
    return extract_pofs_from_votes(votes)


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
