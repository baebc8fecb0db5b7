"""Signed votes and quorum certificates.

Polygraph-style accountability works because every step that can influence a
decision is a *signed vote*: a replica signs the tuple (context, round, kind,
value).  A :class:`Certificate` bundles a quorum (``ceil(2|C|/3)``) of such
votes for the same value; conflicting certificates are the raw material from
which proofs of fraud are extracted (:mod:`repro.consensus.proofs`).

Where a vote is parsed
----------------------

A message body's ``"vote"`` is the :class:`SignedVote` itself, and every
handler drops a ``"vote"`` of any other type (``type(vote) is SignedVote``).
That is the trust boundary: bytes become a vote only in the wire decoder,
which runs :func:`vote_from_payload` — arity and the exact type of every
field — on the codec's registered ``vote`` object, once per frame a socket
reads; a vote made in the process comes only from :func:`make_vote`.  So in
the simulator nobody parses a vote — every recipient shares the sender's
frozen object — and on a socket each process parses each vote it receives
once.  Certificates and proofs of fraud travel as the tuples below and are
rebuilt by :func:`certificate_from_payload` and
:meth:`~repro.consensus.proofs.ProofOfFraud.from_payload` in the handler.

Wire layouts
------------

``to_payload()`` is the payload of the codec's ``vote``, ``certificate`` and
``proof-of-fraud`` objects, and bodies carry the certificate and proof tuples
themselves; ``*_from_payload`` accept exactly these tuples and nothing else
(:func:`vote_from_payload` also returns a :class:`SignedVote` it is given).
They are positional — no field names on the wire — and say each thing once::

    vote         (context, round, kind, value_digest,
                  signer, signature, scheme, payload_hash[, signature_signer])
    certificate  (context, round, kind, value_digest, scheme, payload_hash,
                  [(signer, signature) | vote, ...])
    proof        (culprit, vote, vote)

``signature``, ``scheme`` and ``payload_hash`` are the fields of the vote's
:class:`~repro.crypto.signatures.SignedPayload`; its own ``signer`` is written
(as the ninth field) only when it differs from the vote's, which an honest
vote's never does.  A certificate states its step and the ``scheme`` /
``payload_hash`` of its first vote once, and every vote that restates exactly
that — all of them, in a certificate honest replicas built — shrinks to
``(signer, signature)``: 42 encoded bytes a vote under the simulated (HMAC)
scheme, against 223 for a vote on its own.

The fallback — a vote that differs from the header in any field keeps its
full tuple *in its list position* — is what makes the encoding lossless
rather than normalising: a decoded object ``==`` the one encoded, vote order
included.  Without it a certificate smuggling in a foreign-context vote, a
vote attributed to another signer, a second scheme or a wrong payload hash
would decode into a *different* certificate, and :meth:`Certificate.verify`
("mixes unrelated votes"), :func:`verify_vote` (signer attribution) and the
key registry's hash binding would judge something the sender never sent —
conflicting certificates are evidence, so they must arrive as they were made.

The pre-image a replica signs is :func:`vote_payload`, not any of the above:
the wire form can change without invalidating a signature.  Its canonical
digest is computed once per process per statement while the statement's
instance is live (``_VOTE_DIGESTS``) and serves signing and verifying alike:
:func:`make_vote` hands it to the signer, :func:`verify_vote` to the key
registry.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import InvalidCertificateError
from repro.common.memo import AgedMemo
from repro.common.types import ReplicaId, quorum_size
from repro.crypto.hashing import hash_payload
from repro.crypto.signatures import SignedPayload

#: Canonical-payload digests of votes, keyed by the vote identity tuple
#: ``(context, round, kind, value_digest)``.  Every honest replica signs the
#: same statement, and recipients in other processes hold their own decoded
#: :class:`SignedVote` objects, so a per-object memo alone would re-encode
#: the same payload once per signer and once per decoded copy; the
#: module-level map makes each distinct vote payload canonicalised once per
#: process while its instance is live.  Content-addressed, so sharing across
#: runs is safe.
_VOTE_DIGESTS: AgedMemo = AgedMemo(cap=1 << 20)

#: Per-signer signature validity of certificates, keyed by certificate
#: content (see :meth:`Certificate._content_key`).  A certificate is re-verified
#: by every recipient and again by the exclusion consensus against shrinking
#: committees; with the validity map cached, each re-check is set arithmetic.
_CERT_VALIDITY: AgedMemo = AgedMemo(cap=1 << 20)


def retire_memos(horizon: int, depth: int) -> None:
    """Instances up to ``horizon`` are retired: age both memo tables.

    A statement or a certificate belongs to one instance, so neither table
    keeps an entry long after its instance retired (how:
    :mod:`repro.common.memo`); the cap of a generation bounds what hostile
    input can add.
    """
    _VOTE_DIGESTS.retire(horizon, depth)
    _CERT_VALIDITY.retire(horizon, depth)


def _clear_memos() -> None:
    """Drop the module-level memo tables (exposed for tests)."""
    _VOTE_DIGESTS.reset()
    _CERT_VALIDITY.reset()


class VoteKind(enum.Enum):
    """The signed message kinds that participate in accountability.

    ``BVAL`` votes are deliberately excluded from equivocation checks: the
    BV-broadcast of the binary consensus legitimately lets an honest replica
    echo both binary values in the same round.
    """

    RBC_INIT = "rbc-init"
    RBC_ECHO = "rbc-echo"
    RBC_READY = "rbc-ready"
    AUX = "aux"
    DECIDE = "decide"
    PROPOSAL = "proposal"


#: Wire value -> member.  The parsers subscript it: an unknown kind is a
#: ``KeyError`` and an unhashable one a ``TypeError``, which every handler
#: drops, and a vote crosses the wire without an ``enum`` frame.
_KIND_OF: Dict[str, VoteKind] = {kind.value: kind for kind in VoteKind}


@dataclasses.dataclass(frozen=True)
class SignedVote:
    """A vote: (context, round, kind, value) signed by ``signer``.

    ``context`` identifies the protocol instance, e.g. ``"bin:5:2"`` for the
    binary consensus of slot 2 in ASMR instance 5.  ``value_digest`` is the
    canonical hash of the voted value so that votes stay small regardless of
    the payload (a proposal of 10,000 transactions is voted on by hash).
    """

    context: str
    round: int
    kind: VoteKind
    value_digest: str
    signer: ReplicaId
    signature: SignedPayload

    def vote_payload(self) -> Dict[str, Any]:
        """The payload that was signed."""
        return vote_payload(self.context, self.round, self.kind, self.value_digest)

    def payload_digest(self) -> str:
        """Canonical digest of :meth:`vote_payload`, memoised process-wide.

        Every recipient of a broadcast vote re-derives the same digest to
        verify the signature; the memo collapses that to one encoding per
        distinct vote (see ``_VOTE_DIGESTS``).
        """
        return _vote_digest(self.context, self.round, self.kind, self.value_digest)

    def conflicts_with(self, other: "SignedVote") -> bool:
        """True when the two votes prove equivocation by the same signer."""
        return (
            self.signer == other.signer
            and self.context == other.context
            and self.round == other.round
            and self.kind == other.kind
            and self.value_digest != other.value_digest
        )

    def to_payload(self) -> Tuple[Any, ...]:
        """Wire tuple of the vote (layout in the module docstring), built once
        per object: the codec encodes a vote through it, and a vote can be
        encoded more than once (a certificate's fallback entry, a proof of
        fraud, the canonical hash).
        """
        cached = self.__dict__.get("_payload")
        if cached is None:
            signature = self.signature
            cached = (
                self.context,
                self.round,
                self.kind._value_,
                self.value_digest,
                self.signer,
                signature.signature,
                signature.scheme,
                signature.payload_hash,
            )
            if signature.signer != self.signer:
                cached += (signature.signer,)
            object.__setattr__(self, "_payload", cached)
        return cached


def vote_payload(context: Any, round_number: int, kind: VoteKind, value_digest: str) -> Dict[str, Any]:
    """The canonical payload a replica signs when voting.

    ``context`` may be a string or a :class:`~repro.network.topic.Topic`; the
    signed form is always the canonical string so votes stay wire-stable.
    """
    return {
        "context": str(context),
        "round": round_number,
        "kind": kind._value_,
        "value_digest": value_digest,
    }


def _vote_digest(
    context: str, round_number: int, kind: VoteKind, value_digest: str
) -> str:
    """Memoised canonical digest of a vote payload."""
    # ``_value_`` is the member's own attribute; ``.value`` is a descriptor
    # that costs two frames, and this runs once per vote verified.
    key = (context, round_number, kind._value_, value_digest)
    try:
        return _VOTE_DIGESTS[key]
    except KeyError:
        pass
    digest = hash_payload(vote_payload(context, round_number, kind, value_digest))
    _VOTE_DIGESTS[key] = digest
    return digest


def make_vote(
    host: Any, context: Any, round_number: int, kind: VoteKind, value_digest: str
) -> SignedVote:
    """Create a vote signed by ``host`` (any object exposing ``sign`` and ``replica_id``).

    ``context`` accepts a string or a Topic; votes carry the canonical string.
    ``host.sign(payload, digest)`` gets the statement's memoised digest, so
    a statement every replica signs is encoded once per process, not once
    per signer.
    """
    context = str(context)
    digest = _vote_digest(context, round_number, kind, value_digest)
    signature = host.sign(vote_payload(context, round_number, kind, value_digest), digest)
    return SignedVote(
        context=context,
        round=round_number,
        kind=kind,
        value_digest=value_digest,
        signer=host.replica_id,
        signature=signature,
    )


#: The verified votes one component has seen, in arrival order, keyed by what
#: a vote states there: ``(signer, kind value, round, value_digest)`` (the
#: kind's value, because hashing a member is a Python frame).
CollectedVotes = Dict[Tuple[ReplicaId, str, int, str], SignedVote]


def collect_vote(collected: CollectedVotes, vote: SignedVote) -> None:
    """Keep ``vote`` unless ``collected`` holds the statement already: a replay
    adds nothing, and a signer's conflicting statements are all kept, which
    is what a proof of fraud is extracted from."""
    key = (vote.signer, vote.kind._value_, vote.round, vote.value_digest)
    if key not in collected:
        collected[key] = vote


def verify_vote(vote: SignedVote, verifier: Any) -> bool:
    """Verify a vote's signature (``verifier`` exposes ``verify(payload, signed)``).

    Also rejects votes whose embedded signer does not match the signature's
    signer — a Byzantine replica cannot attribute its vote to someone else.

    Verifiers exposing the digest-first entry point (``verify_digest``) skip
    re-encoding the vote payload: the memoised canonical digest plus the key
    registry's verified-signature cache turn the fan-out re-verification of a
    vote into two dict probes.  A replica host's ``verify_digest`` is its
    registry's bound method, so a verified vote costs this frame and one in
    :meth:`~repro.crypto.keys.KeyRegistry.verify_digest`, which checks the
    digest against ``payload_hash``, the signer is known and the scheme.
    """
    signature = vote.signature
    if signature.signer != vote.signer:
        return False
    try:
        verify_digest = verifier.verify_digest
    except AttributeError:
        return verifier.verify(vote.vote_payload(), signature)
    # ``_vote_digest`` with its hit read in place: every recipient of a
    # broadcast vote but the first finds the digest here.
    kind = vote.kind
    try:
        digest = _VOTE_DIGESTS[vote.context, vote.round, kind._value_, vote.value_digest]
    except KeyError:
        digest = _vote_digest(vote.context, vote.round, kind, vote.value_digest)
    return verify_digest(digest, signature)


@dataclasses.dataclass
class Certificate:
    """A quorum of signed votes for the same (context, round, kind, value)."""

    context: str
    round: int
    kind: VoteKind
    value_digest: str
    votes: Tuple[SignedVote, ...]

    def signers(self) -> Set[ReplicaId]:
        """The distinct replicas whose votes are included."""
        return {vote.signer for vote in self.votes}

    def to_payload(self) -> Tuple[Any, ...]:
        """Wire tuple of the certificate (layout in the module docstring).

        The statement and the signed hash are written once, taken from the
        certificate and its first vote; a vote that restates them is reduced
        to ``(signer, signature)`` and any other vote keeps its full tuple.
        """
        context, round_number, kind = self.context, self.round, self.kind
        value_digest = self.value_digest
        scheme = payload_hash = ""
        if self.votes:
            first = self.votes[0].signature
            scheme, payload_hash = first.scheme, first.payload_hash
        entries = [
            (vote.signer, vote.signature.signature)
            if (
                vote.context == context
                and vote.round == round_number
                and vote.kind == kind
                and vote.value_digest == value_digest
                and vote.signature.signer == vote.signer
                and vote.signature.scheme == scheme
                and vote.signature.payload_hash == payload_hash
            )
            else vote.to_payload()
            for vote in self.votes
        ]
        return (
            context,
            round_number,
            kind._value_,
            value_digest,
            scheme,
            payload_hash,
            entries,
        )

    def _content_key(self) -> Tuple[Any, ...]:
        """Content identity of the certificate, memoised on the instance.

        Covers every input of signature verification (the certificate step,
        each vote's claimed signer and raw signature), so two certificates
        rebuilt from the same wire payload by different recipients share one
        cache entry.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = (
                self.context,
                self.round,
                self.kind.value,
                self.value_digest,
                tuple(
                    (
                        vote.signer,
                        vote.signature.signer,
                        vote.signature.payload_hash,
                        vote.signature.signature,
                        vote.signature.scheme,
                    )
                    for vote in self.votes
                ),
            )
            self._cache_key = key
        return key

    def _validity_map(self, verifier: Any) -> Dict[ReplicaId, bool]:
        """Per-signer signature validity, verified once per deployment.

        The map is independent of the committee a later check restricts to —
        validity is a property of the deployment's PKI, shared by every host
        of a run — so a certificate that already passed against a superset
        committee is re-checked against a shrunken one with set arithmetic
        alone.  Entries are shared across recipients through ``_CERT_VALIDITY``
        keyed by the verifier's registry token plus the certificate content;
        verifiers without a token (minimal test doubles) still get the
        per-instance memo.
        """
        token = getattr(verifier, "verification_token", None)
        cached = self.__dict__.get("_validity")
        if cached is not None and self.__dict__.get("_validity_token") == token:
            return cached
        global_key: Optional[Tuple[Any, ...]] = None
        validity: Optional[Dict[ReplicaId, bool]] = None
        if token is not None:
            global_key = (token,) + self._content_key()
            try:
                validity = _CERT_VALIDITY[global_key]
            except KeyError:
                pass
        if validity is None:
            validity = {}
            for vote in self.votes:
                ok = verify_vote(vote, verifier)
                previous = validity.get(vote.signer)
                # A signer appearing twice must have *all* its votes valid —
                # matching the vote-order scan this map replaces.
                validity[vote.signer] = ok if previous is None else (previous and ok)
            if global_key is not None:
                _CERT_VALIDITY[global_key] = validity
        self._validity = validity
        self._validity_token = token
        return validity

    def verify(self, verifier: Any, committee: Sequence[ReplicaId]) -> None:
        """Check quorum size and every signature against ``committee``.

        Raises :class:`InvalidCertificateError` on any failure.  The committee
        argument matters: the exclusion consensus re-checks certificates
        against a shrinking committee (Alg. 1 lines 31–36).  Signature
        validity is memoised (:meth:`_validity_map`), so those re-checks cost
        set membership tests, not signature verifications.
        """
        committee_set = set(committee)
        needed = quorum_size(len(committee_set))
        for vote in self.votes:
            if (
                vote.context != self.context
                or vote.round != self.round
                or vote.kind != self.kind
                or vote.value_digest != self.value_digest
            ):
                raise InvalidCertificateError(
                    f"certificate for {self.context} mixes unrelated votes"
                )
        validity = self._validity_map(verifier)
        valid_signers = 0
        for signer, ok in validity.items():
            if signer not in committee_set:
                continue
            if not ok:
                raise InvalidCertificateError(
                    f"certificate for {self.context} contains an invalid "
                    f"signature from {signer}"
                )
            valid_signers += 1
        if valid_signers < needed:
            raise InvalidCertificateError(
                f"certificate for {self.context} has {valid_signers} valid "
                f"signers, needs {needed}"
            )

    def is_valid(self, verifier: Any, committee: Sequence[ReplicaId]) -> bool:
        """Boolean form of :meth:`verify`."""
        try:
            self.verify(verifier, committee)
        except InvalidCertificateError:
            return False
        return True

    def conflicts_with(self, other: "Certificate") -> bool:
        """True when the two certificates support different values for the same step."""
        return (
            self.context == other.context
            and self.round == other.round
            and self.kind == other.kind
            and self.value_digest != other.value_digest
        )

    @staticmethod
    def from_votes(votes: Iterable[SignedVote]) -> "Certificate":
        """Bundle votes (all for the same step and value) into a certificate."""
        votes = tuple(votes)
        if not votes:
            raise InvalidCertificateError("cannot build a certificate from no votes")
        first = votes[0]
        # One vote per signer: keep the first occurrence deterministically.
        unique: Dict[ReplicaId, SignedVote] = {}
        for vote in votes:
            unique.setdefault(vote.signer, vote)
        return Certificate(
            context=first.context,
            round=first.round,
            kind=first.kind,
            value_digest=first.value_digest,
            votes=tuple(unique[signer] for signer in sorted(unique)),
        )


def certificate_from_payload(payload: Tuple[Any, ...]) -> Certificate:
    """Rebuild a certificate from its wire tuple (inverse of ``to_payload``).

    Raises ``TypeError`` / ``ValueError`` / ``KeyError`` for anything but the
    documented layout with exactly typed fields, like :func:`vote_from_payload`.
    """
    if type(payload) is not tuple:
        raise TypeError("certificate payload is not a tuple")
    context, round_number, kind, value_digest, scheme, payload_hash, entries = payload
    if not (
        type(context) is str
        and type(round_number) is int
        and type(value_digest) is str
        and type(scheme) is str
        and type(payload_hash) is str
        and type(entries) is list
    ):
        raise TypeError("certificate payload has a field of the wrong type")
    kind = _KIND_OF[kind]
    votes: List[SignedVote] = []
    for entry in entries:
        if type(entry) is not tuple:
            raise TypeError("certificate vote entry is not a tuple")
        if entry[2:]:
            # More than (signer, signature): a vote that does not restate the
            # header travels as its own full tuple.
            votes.append(vote_from_payload(entry))
            continue
        signer, signature = entry
        if type(signature) is not bytes:
            raise TypeError("certificate vote signature is not bytes")
        if type(signer) is not int:
            hash(signer)  # signers key dicts: an unhashable one is a TypeError
        votes.append(
            SignedVote(
                context,
                round_number,
                kind,
                value_digest,
                signer,
                SignedPayload(signer, payload_hash, signature, scheme),
            )
        )
    return Certificate(context, round_number, kind, value_digest, tuple(votes))


def vote_from_payload(payload: Tuple[Any, ...]) -> SignedVote:
    """Rebuild a signed vote from its wire tuple (inverse of ``to_payload``).

    The tuple comes off the wire, so arity and the exact type of every field
    are checked here and anything else raises ``TypeError`` / ``ValueError`` /
    ``KeyError`` (an unknown kind), which the decoder turns into a
    ``CodecError`` and a handler parsing a proof of fraud or a certificate
    into "drop the message": a ``str`` signature or a list-valued scheme would
    otherwise only surface as a ``TypeError`` from inside signature
    verification.  A :class:`SignedVote` (a decoded body's ``"vote"``) is
    returned as it is.
    """
    if type(payload) is not tuple:
        if type(payload) is SignedVote:
            return payload
        raise TypeError("vote payload is not a tuple")
    (
        context,
        round_number,
        kind,
        value_digest,
        signer,
        signature,
        scheme,
        payload_hash,
        *signed_by,
    ) = payload
    if not (
        type(context) is str
        and type(round_number) is int
        and type(value_digest) is str
        and type(signature) is bytes
        and type(scheme) is str
        and type(payload_hash) is str
    ):
        raise TypeError("vote payload has a field of the wrong type")
    if type(signer) is not int:
        hash(signer)  # signers key dicts: an unhashable one is a TypeError
    signature_signer = signer
    if signed_by:
        (signature_signer,) = signed_by
        hash(signature_signer)
    return SignedVote(
        context,
        round_number,
        _KIND_OF[kind],
        value_digest,
        signer,
        SignedPayload(signature_signer, payload_hash, signature, scheme),
    )
