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

from typing import Any, Callable, Dict, List, Optional, Set

from repro.common.types import ReplicaId
from repro.consensus.certificates import (
    Certificate,
    SignedVote,
    VoteKind,
    certificate_from_payload,
    make_vote,
    verify_vote,
    vote_from_payload,
)
from repro.consensus.host import ProtocolHost
from repro.crypto.hashing import hash_payload
from repro.network.topic import TopicLike, as_topic
from repro.obs.trace import topic_trace_attrs

#: Callback signature: (context, decided_value, certificate)
DecideCallback = Callable[[str, int, Certificate], None]


#: The binary domain has two values, hence two canonical digests, indexed by
#: the value they stand for.
_DIGEST_OF = (hash_payload(["binary-value", 0]), hash_payload(["binary-value", 1]))


def value_digest(value: int) -> str:
    """Canonical digest of a binary value used in votes and certificates."""
    return _DIGEST_OF[1 if value else 0]


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
        # first activity to the decision; round/decide events feed the
        # critical-path analysis.
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
        # Per-round state.
        self._bval_sent: Dict[int, Set[int]] = {}
        self._bval_received: Dict[int, Dict[int, Set[ReplicaId]]] = {}
        self._bin_values: Dict[int, Set[int]] = {}
        self._aux_sent: Dict[int, bool] = {}
        self._aux_votes: Dict[int, Dict[ReplicaId, SignedVote]] = {}
        #: Per round, how many of ``_aux_votes`` (the first AUX per sender)
        #: stand for 0 and for 1: what a round's resolution reads, kept as
        #: the votes arrive instead of recounted from them on every arrival.
        self._aux_counts: Dict[int, List[int]] = {}
        # All verified AUX/DECIDE votes observed, for accountability.
        self.collected_votes: List[SignedVote] = []

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
        self._broadcast_bval(round_number, self.estimate)
        # Messages for this round may have arrived while we were still in an
        # earlier round; re-evaluate so progress does not stall at the tail.
        if self._bin_values.get(round_number):
            self._broadcast_aux(round_number)
            self._try_resolve_round(round_number)

    def _broadcast_bval(self, round_number: int, value: int) -> None:
        sent = self._bval_sent.setdefault(round_number, set())
        if value in sent:
            return
        sent.add(value)
        self.host.emit(
            self.topic, self.BVAL, {"round": round_number, "value": value}
        )

    def _broadcast_aux(self, round_number: int) -> None:
        if self._aux_sent.get(round_number):
            return
        bin_values = self._bin_values.get(round_number, set())
        if not bin_values:
            return
        self._aux_sent[round_number] = True
        if self.estimate in bin_values:
            chosen = self.estimate
        else:
            chosen = sorted(bin_values)[0]
        vote = make_vote(
            self.host, self.context, round_number, VoteKind.AUX, _DIGEST_OF[chosen]
        )
        self.collected_votes.append(vote)
        self.host.emit(
            self.topic,
            self.AUX,
            {"round": round_number, "value": chosen, "vote": vote.to_payload()},
        )

    # -- message handling -----------------------------------------------------------

    def handle(self, sender: ReplicaId, kind: str, body: Dict[str, Any]) -> None:
        """Process a message of this instance."""
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
        round_number = body.get("round", 0)
        if type(round_number) is not int or round_number < 0:
            return
        value = 1 if body.get("value") else 0
        per_round = self._bval_received.setdefault(round_number, {0: set(), 1: set()})
        per_round[value].add(sender)
        support = len(per_round[value])
        if support >= self.host.support:
            # Echo the value once enough replicas back it (BV-broadcast rule).
            self._broadcast_bval(round_number, value)
        if support >= self.host.quorum:
            self._bin_values.setdefault(round_number, set()).add(value)
            if round_number == self.round and self.started:
                self._broadcast_aux(round_number)
                self._try_resolve_round(round_number)

    def recheck(self) -> None:
        """Re-apply the thresholds to the votes held (the committee shrank)."""
        if self.decided:
            return
        for round_number, per_round in list(self._bval_received.items()):
            for value, senders in per_round.items():
                if len(senders) >= self.host.support:
                    self._broadcast_bval(round_number, value)
                if len(senders) >= self.host.quorum:
                    self._bin_values.setdefault(round_number, set()).add(value)
        if self.started:
            self._try_resolve_round(self.round)

    def _handle_aux(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        round_number = body.get("round", 0)
        if type(round_number) is not int or round_number < 0:
            return
        value = 1 if body.get("value") else 0
        payload = body.get("vote")
        if payload is None:
            return
        try:
            vote = vote_from_payload(payload)
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
        self.collected_votes.append(vote)
        if self.decided:
            return
        votes = self._aux_votes.setdefault(round_number, {})
        # Only the first AUX per sender counts for the protocol; additional
        # conflicting ones remain in collected_votes for PoF extraction.
        if sender not in votes:
            votes[sender] = vote
            self._aux_counts.setdefault(round_number, [0, 0])[value] += 1
        if self.started:
            self._try_resolve_round(self.round)

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
        self.collected_votes.extend(certificate.votes)
        self._decide(value, certificate, rebroadcast=True)

    # -- round resolution --------------------------------------------------------------

    def _try_resolve_round(self, round_number: int) -> None:
        if self.decided or round_number != self.round:
            return
        bin_values = self._bin_values.get(round_number, set())
        if not bin_values:
            return
        if not self._aux_sent.get(round_number):
            self._broadcast_aux(round_number)
        counts = self._aux_counts.get(round_number)
        if counts is None:
            return
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
                    for vote in self._aux_votes[round_number].values()
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
        self.collected_votes.append(decide_vote)
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
