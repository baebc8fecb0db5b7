"""The protocol host interface.

A replica process hosts many protocol component instances at once (reliable
broadcasts, binary consensus instances, the exclusion and inclusion consensus
of a membership change, ...).  Components never talk to the network directly:
they go through their :class:`ProtocolHost`, which provides identity, the
current committee, signing, verification and message emission.  This is the
seam where deceitful behaviour is injected — a deceitful replica's host
rewrites selected outgoing messages per partition (see
:mod:`repro.adversary.attacks`) while components stay oblivious.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.common.types import ReplicaId, quorum_size, recovery_threshold
from repro.crypto.signatures import SignedPayload


class ProtocolHost:
    """Interface a replica exposes to its protocol components."""

    #: The run's :class:`~repro.obs.core.Probe`, or None (uninstrumented).
    #: Components cache it once (``probe = host.probe``) and guard every
    #: instrumented path with one ``if probe is not None``.
    probe: Optional[Any] = None

    # -- identity and committee ------------------------------------------------

    @property
    def replica_id(self) -> ReplicaId:
        """This replica's identifier."""
        raise NotImplementedError

    def committee(self) -> Sequence[ReplicaId]:
        """Current committee (sorted replica ids) as known by this replica."""
        raise NotImplementedError

    def committee_size(self) -> int:
        """Size of the current committee."""
        return len(self.committee())

    #: The two thresholds every component tests on every message:
    #: ``ceil(2n/3)`` (quorum) and ``ceil(n/3)`` (echo / ready / pull support)
    #: over the *current* committee.  A host assigns its committee through
    #: :meth:`_set_committee` and nowhere else, which stores both as plain
    #: attributes beside it; one that never does has neither, and its first
    #: threshold read is an ``AttributeError``.
    quorum: int
    support: int

    def _set_committee(self, committee: Iterable[ReplicaId]) -> None:
        """The one place ``_committee`` is assigned: the thresholds follow it.

        An empty committee has none — ``ValueError``, as asking for one
        always was.
        """
        self._committee: List[ReplicaId] = sorted(committee)
        size = len(self._committee)
        self.quorum = quorum_size(size)
        self.support = recovery_threshold(size)

    # -- time -------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current time of the bound transport backend.

        Simulated seconds under the discrete-event simulator, wall-clock
        (event loop) seconds under the asyncio transport — components only
        ever compare and subtract it, so they run unchanged on either.
        """
        raise NotImplementedError

    def schedule(self, delay: float, callback) -> int:
        """Schedule a callback after ``delay`` seconds; returns a timer id."""
        raise NotImplementedError

    # -- cryptography -------------------------------------------------------------

    def sign(self, payload: Any, digest: Optional[str] = None) -> SignedPayload:
        """Sign a payload with this replica's key.

        ``digest``, when given, is the caller's statement that it is the
        payload's canonical digest (as for ``verify_digest``).  The host
        forwards it to its :class:`~repro.crypto.signatures.Signer`, which
        then does not encode the payload; ``make_vote`` passes the vote
        digest the verifiers memoise.
        """
        raise NotImplementedError

    def verify(self, payload: Any, signed: SignedPayload) -> bool:
        """Verify a signed payload against the PKI."""
        raise NotImplementedError

    #: Hosts backed by a :class:`KeyRegistry` additionally expose
    #: ``verify_digest(digest, signed)`` (digest-first verification through
    #: the registry's verified-signature cache — the registry's bound method,
    #: held as an instance attribute) and ``verification_token`` (the
    #: registry's cache identity).  Both are optional — callers discover them
    #: by attribute lookup so minimal test hosts keep working.

    # -- communication -------------------------------------------------------------

    def emit(
        self,
        protocol: Any,
        kind: str,
        body: Dict[str, Any],
        recipients: Optional[Iterable[ReplicaId]] = None,
    ) -> None:
        """Broadcast a protocol message (to the committee unless restricted).

        ``protocol`` is a :class:`~repro.network.topic.Topic` (or anything
        :func:`~repro.network.topic.as_topic` accepts).
        """
        raise NotImplementedError

    def emit_to(self, recipient: ReplicaId, protocol: Any, kind: str, body: Dict[str, Any]) -> None:
        """Send a protocol message to a single replica."""
        raise NotImplementedError
