"""Accountable binary Byzantine consensus.

The component follows the leaderless BV-broadcast + AUX structure of DBFT (the
binary consensus underlying Red Belly and Polygraph):

* each round ``r`` starts by BV-broadcasting the current estimate (``BVAL``
  messages, echoed once ``ceil(n/3)`` support is seen, accepted into
  ``bin_values`` at a quorum);
* once ``bin_values`` is non-empty, the replica broadcasts a *signed*
  ``AUX(r, w)`` vote for a single value ``w``;
* once a quorum of AUX votes whose values all lie in ``bin_values`` is
  collected, the round resolves: a single value equal to the round's
  deterministic fallback value decides, otherwise the estimate is updated and
  the next round starts.

Accountability: AUX and DECIDE votes are signed; an honest replica sends at
most one AUX per round and at most one DECIDE per instance, so two different
signed AUX (or DECIDE) values from the same replica in the same round are a
proof of fraud.  ``BVAL`` is deliberately unsigned and excluded from the
equivocation checks because BV-broadcast legitimately echoes both values.

The deterministic fallback value (``round mod 2``) replaces DBFT's weak
coordinator; it preserves safety unconditionally and terminates in every
scenario the simulator exercises.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.types import ReplicaId
from repro.consensus.certificates import (
    Certificate,
    CollectedVotes,
    SignedVote,
    VoteKind,
    certificate_from_payload,
    collect_vote,
    make_vote,
    verify_vote,
    vote_from_payload,
)
from repro.consensus.host import ProtocolHost
from repro.crypto.hashing import hash_payload
from repro.network.topic import Topic, TopicLike, as_topic
from repro.obs.trace import topic_trace_attrs

#: Callback signature: (context, decided_value, certificate)
DecideCallback = Callable[[str, int, Certificate], None]


#: The binary domain has two values, hence two canonical digests, indexed by
#: the value they stand for.
_DIGEST_OF = (hash_payload(["binary-value", 0]), hash_payload(["binary-value", 1]))


def value_digest(value: int) -> str:
    """Canonical digest of a binary value used in votes and certificates."""
    return _DIGEST_OF[1 if value else 0]


class _Round:
    """What one round of an instance holds; a message fetches it once."""

    __slots__ = (
        "number",
        "bval_sent",
        "bval_received",
        "bin_values",
        "aux_sent",
        "aux_votes",
        "aux_counts",
    )

    def __init__(self, number: int):
        self.number = number
        #: Values this replica BV-broadcast, and who BV-broadcast each value.
        self.bval_sent: Set[int] = set()
        self.bval_received: Tuple[Set[ReplicaId], Set[ReplicaId]] = (set(), set())
        self.bin_values: Set[int] = set()
        self.aux_sent = False
        #: The first AUX per sender, and how many of them stand for 0 and for
        #: 1: what the round's resolution reads, kept as the votes arrive
        #: instead of recounted from them on every arrival.
        self.aux_votes: Dict[ReplicaId, SignedVote] = {}
        self.aux_counts = [0, 0]


class _Rounds(dict):
    """Rounds by number; subscripting one that is not there yet creates it
    (callers validate the number first: ``get`` and iteration create nothing)."""

    def __missing__(self, number: int) -> _Round:
        state = self[number] = _Round(number)
        return state


class BinaryConsensus:
    """One accountable binary consensus instance."""

    BVAL = "BVAL"
    AUX = "AUX"
    DECIDE = "DECIDE"

    def __init__(self, host: ProtocolHost, context: TopicLike, on_decide: DecideCallback):
        self.host = host
        #: The instance's topic (emission path) and its canonical string form
        #: (the signed vote context — votes stay wire-stable strings).
        self.topic = as_topic(context)
        self.context = self.topic.canonical
        self.on_decide = on_decide
        # Instrumentation (None when off): latency and one span run from
        # first activity to the decision, with round/decide events.
        self._probe = host.probe
        self._started_at: Optional[float] = None
        self._span = None
        if self._probe is not None:
            self._trace_attrs = topic_trace_attrs(self.topic)
        self.round = 0
        self.estimate: Optional[int] = None
        self.decided = False
        self.decision: Optional[int] = None
        self.decision_certificate: Optional[Certificate] = None
        self.started = False
        #: Per-round state, created by the first valid message of a round.
        self._rounds = _Rounds()
        #: The rounds a BVAL arrived for, in the order of their first one:
        #: the order ``recheck`` re-applies the thresholds in.
        self._bval_rounds: List[_Round] = []
        # All verified AUX/DECIDE votes observed, for accountability.
        self._collected: CollectedVotes = {}

    @property
    def collected_votes(self) -> List[SignedVote]:
        """Every verified vote seen, a statement once, in arrival order."""
        return list(self._collected.values())

    # -- API ----------------------------------------------------------------------

    def propose(self, value: int) -> None:
        """Start the instance with the replica's input value (0 or 1)."""
        if self.started:
            return
        self.started = True
        self._trace_started()
        self.estimate = 1 if value else 0
        self._start_round(0)

    def _trace_started(self) -> None:
        if self._started_at is None:
            self._started_at = self.host.now
            probe = self._probe
            if probe is not None:
                self._span = probe.start_span(
                    "bin", self.host.replica_id, self._started_at, **self._trace_attrs
                )

    def _start_round(self, round_number: int) -> None:
        self.round = round_number
        probe = self._probe
        if probe is not None:
            probe.event(
                "bin.round",
                self.host.replica_id,
                self.host.now,
                round=round_number,
                **self._trace_attrs,
            )
        assert self.estimate is not None
        state = self._rounds[round_number]
        self._broadcast_bval(state, self.estimate)
        # Messages for this round may have arrived while we were still in an
        # earlier round; re-evaluate so progress does not stall at the tail.
        if state.bin_values:
            self._broadcast_aux(state)
            self._try_resolve_round(state)

    def _broadcast_bval(self, state: _Round, value: int) -> None:
        sent = state.bval_sent
        if value in sent:
            return
        sent.add(value)
        self.host.emit(
            self.topic, self.BVAL, {"round": state.number, "value": value}
        )

    def _broadcast_aux(self, state: _Round) -> None:
        if state.aux_sent:
            return
        bin_values = state.bin_values
        if not bin_values:
            return
        state.aux_sent = True
        round_number = state.number
        if self.estimate in bin_values:
            chosen = self.estimate
        else:
            chosen = sorted(bin_values)[0]
        vote = make_vote(
            self.host, self.context, round_number, VoteKind.AUX, _DIGEST_OF[chosen]
        )
        collect_vote(self._collected, vote)
        self.host.emit(
            self.topic,
            self.AUX,
            {"round": round_number, "value": chosen, "vote": vote.to_payload()},
        )

    # -- message handling -----------------------------------------------------------

    def handle(self, topic: Topic, sender: ReplicaId, kind: str, body: Dict[str, Any]) -> None:
        """Process a message of this instance.

        The router's handler signature: the component is registered under its
        own ``topic`` and has no use for the argument (a message sent *below*
        that topic matches the route too and is read as sent on it; what binds
        a vote to the instance is its signed context)."""
        if self._started_at is None:
            self._trace_started()
        if kind == self.BVAL:
            self._handle_bval(sender, body)
        elif kind == self.AUX:
            self._handle_aux(sender, body)
        elif kind == self.DECIDE:
            self._handle_decide(sender, body)

    def _handle_bval(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        if self.decided:
            return
        # BVAL before propose() still counts: buffer by processing it, the
        # estimate is unknown but thresholds are per-value anyway.
        try:
            round_number = body["round"]
        except KeyError:
            round_number = 0
        if type(round_number) is not int or round_number < 0:
            return
        try:
            value = 1 if body["value"] else 0
        except KeyError:
            value = 0
        state = self._rounds[round_number]
        received = state.bval_received
        if not (received[0] or received[1]):
            self._bval_rounds.append(state)
        senders = received[value]
        senders.add(sender)
        support = len(senders)
        host = self.host
        if support >= host.support:
            # Echo the value once enough replicas back it (BV-broadcast rule).
            self._broadcast_bval(state, value)
        if support >= host.quorum:
            state.bin_values.add(value)
            if round_number == self.round and self.started:
                self._broadcast_aux(state)
                self._try_resolve_round(state)

    def recheck(self) -> None:
        """Re-apply the thresholds to the votes held (the committee shrank)."""
        if self.decided:
            return
        for state in self._bval_rounds:
            for value, senders in enumerate(state.bval_received):
                if len(senders) >= self.host.support:
                    self._broadcast_bval(state, value)
                if len(senders) >= self.host.quorum:
                    state.bin_values.add(value)
        if self.started:
            self._try_resolve_round(self._rounds[self.round])

    def _handle_aux(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        try:
            round_number = body["round"]
        except KeyError:
            round_number = 0
        if type(round_number) is not int or round_number < 0:
            return
        try:
            value = 1 if body["value"] else 0
        except KeyError:
            value = 0
        try:
            vote = vote_from_payload(body["vote"])
        except (KeyError, ValueError, TypeError):
            return
        if (
            vote.signer != sender
            or vote.context != self.context
            or vote.round != round_number
            or vote.kind != VoteKind.AUX
            or vote.value_digest != _DIGEST_OF[value]
        ):
            return
        if not verify_vote(vote, self.host):
            return
        # Votes are collected even after deciding: the confirmation phase
        # cross-checks them against other replicas' certificates to extract
        # proofs of fraud from later rounds of an attacked instance.
        collect_vote(self._collected, vote)
        if self.decided:
            return
        rounds = self._rounds
        state = rounds[round_number]
        votes = state.aux_votes
        # Only the first AUX per sender counts for the protocol; additional
        # conflicting ones remain in collected_votes for PoF extraction.
        if sender not in votes:
            votes[sender] = vote
            state.aux_counts[value] += 1
        if self.started:
            # Whatever round the vote was for, it is the current one that an
            # arrival re-examines.
            current = self.round
            self._try_resolve_round(state if round_number == current else rounds[current])

    def _handle_decide(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        if self.decided:
            return
        value = 1 if body.get("value") else 0
        payload = body.get("certificate")
        if payload is None:
            return
        try:
            certificate = certificate_from_payload(payload)
        except (KeyError, ValueError, TypeError):
            return
        if certificate.value_digest != _DIGEST_OF[value]:
            return
        if certificate.kind != VoteKind.AUX or certificate.context != self.context:
            return
        if not certificate.is_valid(self.host, self.host.committee()):
            return
        for vote in certificate.votes:
            collect_vote(self._collected, vote)
        self._decide(value, certificate, rebroadcast=True)

    # -- round resolution --------------------------------------------------------------

    def _try_resolve_round(self, state: _Round) -> None:
        round_number = state.number
        if self.decided or round_number != self.round:
            return
        bin_values = state.bin_values
        if not bin_values:
            return
        if not state.aux_sent:
            self._broadcast_aux(state)
        counts = state.aux_counts
        # First AUX votes, per value, that lie in ``bin_values``.
        zeros = counts[0] if 0 in bin_values else 0
        ones = counts[1] if 1 in bin_values else 0
        if zeros + ones < self.host.quorum:
            return
        fallback = round_number % 2
        if zeros and ones:
            self.estimate = fallback
        else:
            value = 1 if ones else 0
            if value == fallback:
                digest = _DIGEST_OF[value]
                certificate = Certificate.from_votes(
                    vote
                    for vote in state.aux_votes.values()
                    if vote.value_digest == digest
                )
                self._decide(value, certificate, rebroadcast=True)
                return
            self.estimate = value
        self._start_round(round_number + 1)

    def _decide(self, value: int, certificate: Certificate, rebroadcast: bool) -> None:
        if self.decided:
            return
        self.decided = True
        self.decision = value
        self.decision_certificate = certificate
        probe = self._probe
        if probe is not None:
            now = self.host.now
            probe.count("consensus.binary.decided", value=value)
            probe.observe("consensus.binary.rounds", self.round + 1)
            probe.observe("consensus.binary.certificate_votes", len(certificate.votes))
            if self._started_at is not None:
                probe.observe("consensus.binary.decide_s", now - self._started_at)
            probe.event(
                "bin.decide",
                self.host.replica_id,
                now,
                round=self.round,
                value=value,
                **self._trace_attrs,
            )
            probe.finish(self._span, now)
        decide_vote = make_vote(
            self.host, self.context, 0, VoteKind.DECIDE, _DIGEST_OF[value]
        )
        collect_vote(self._collected, decide_vote)
        if rebroadcast:
            self.host.emit(
                self.topic,
                self.DECIDE,
                {
                    "value": value,
                    "certificate": certificate.to_payload(),
                    "vote": decide_vote.to_payload(),
                },
            )
        self.on_decide(self.context, value, certificate)
