"""Bracha reliable broadcast with accountable (signed) echoes.

One instance disseminates one proposer's value to the whole committee:

* the proposer broadcasts ``INIT(value)``;
* on ``INIT``, replicas broadcast a signed ``ECHO(digest, value)``;
* on a quorum (``ceil(2n/3)``) of matching ``ECHO`` or ``ceil(n/3)`` matching
  ``READY``, replicas broadcast a signed ``READY(digest)``;
* on a quorum of matching ``READY`` carrying the value, the value is
  *delivered*.

The signed INIT/ECHO/READY votes double as accountability material: a replica
that echoes two different digests for the same instance produces a proof of
fraud when its two votes are cross-checked (this is exactly what the paper's
"reliable broadcast attack" does, §B).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from repro.common.types import ReplicaId, quorum_size, recovery_threshold
from repro.consensus.certificates import (
    Certificate,
    SignedVote,
    VoteKind,
    make_vote,
    verify_vote,
    vote_from_payload,
)
from repro.consensus.host import ProtocolHost
from repro.crypto.hashing import hash_payload
from repro.network.topic import TopicLike, as_topic
from repro.obs.trace import topic_trace_attrs

#: Callback signature: (proposer, value, ready_certificate)
DeliverCallback = Callable[[ReplicaId, Any, Certificate], None]


class ReliableBroadcast:
    """One reliable-broadcast instance for a single (instance, proposer) slot."""

    INIT = "INIT"
    ECHO = "ECHO"
    READY = "READY"

    def __init__(
        self,
        host: ProtocolHost,
        context: TopicLike,
        proposer: ReplicaId,
        on_deliver: DeliverCallback,
    ):
        self.host = host
        #: The instance's topic (emission path) and its canonical string form
        #: (the signed vote context — votes stay wire-stable strings).
        self.topic = as_topic(context)
        self.context = self.topic.canonical
        self.proposer = proposer
        self.on_deliver = on_deliver
        self.delivered = False
        self.delivered_value: Any = None
        # Instrumentation (None when off): phase latencies are measured from
        # the first local activity of the instance, a span covers first
        # activity to delivery, and phase events carry the instance/slot for
        # the critical-path analysis.
        self._probe = host.probe
        self._started_at: Optional[float] = None
        self._span = None
        if self._probe is not None:
            self._trace_attrs = topic_trace_attrs(self.topic)
        # Protocol state.
        self._echo_sent = False
        self._ready_sent = False
        self._echo_votes: Dict[str, Dict[ReplicaId, SignedVote]] = {}
        self._ready_votes: Dict[str, Dict[ReplicaId, SignedVote]] = {}
        self._values: Dict[str, Any] = {}
        # Every verified vote seen, kept for accountability cross-checks.
        self.collected_votes: List[SignedVote] = []

    # -- thresholds -------------------------------------------------------------

    def _quorum(self) -> int:
        return quorum_size(self.host.committee_size())

    def _ready_support(self) -> int:
        return recovery_threshold(self.host.committee_size())

    # -- sending ----------------------------------------------------------------

    def _mark_started(self) -> None:
        if self._started_at is None:
            self._started_at = self.host.now
            probe = self._probe
            if probe is not None:
                self._span = probe.start_span(
                    "rbc", self.host.replica_id, self._started_at, **self._trace_attrs
                )

    def _phase(self, phase: str, histogram: Optional[str] = None) -> None:
        """Emit the ``rbc.<phase>`` event and the since-start latency sample
        (callers guard: only reached with a live probe)."""
        probe = self._probe
        host = self.host
        now = host.now
        if histogram is not None and self._started_at is not None:
            probe.observe(histogram, now - self._started_at)
        probe.event("rbc." + phase, host.replica_id, now, **self._trace_attrs)

    def broadcast(self, value: Any) -> None:
        """Called by the proposer to disseminate ``value``."""
        self._mark_started()
        if self._probe is not None:
            self._phase("init")
        digest = hash_payload(value)
        vote = make_vote(self.host, self.context, 0, VoteKind.RBC_INIT, digest)
        self.collected_votes.append(vote)
        self.host.emit(
            self.topic,
            self.INIT,
            {"value": value, "digest": digest, "vote": vote.to_payload()},
        )

    def _send_echo(self, value: Any, digest: str) -> None:
        if self._echo_sent:
            return
        self._echo_sent = True
        if self._probe is not None:
            self._phase("echo", "rbc.init_to_echo_s")
        vote = make_vote(self.host, self.context, 0, VoteKind.RBC_ECHO, digest)
        self.collected_votes.append(vote)
        self.host.emit(
            self.topic,
            self.ECHO,
            {"value": value, "digest": digest, "vote": vote.to_payload()},
        )

    def _send_ready(self, digest: str) -> None:
        if self._ready_sent:
            return
        self._ready_sent = True
        if self._probe is not None:
            self._phase("ready", "rbc.init_to_ready_s")
        vote = make_vote(self.host, self.context, 0, VoteKind.RBC_READY, digest)
        self.collected_votes.append(vote)
        value = self._values.get(digest)
        self.host.emit(
            self.topic,
            self.READY,
            {"digest": digest, "value": value, "vote": vote.to_payload()},
        )

    # -- receiving ----------------------------------------------------------------

    def handle(self, sender: ReplicaId, kind: str, body: Dict[str, Any]) -> None:
        """Process a message of this instance."""
        self._mark_started()
        if self.delivered:
            # Keep collecting signed votes after delivery: a deceitful replica
            # equivocating towards the other partition leaves its conflicting
            # vote here, ready for cross-checking during confirmation.
            kind_map = {
                self.INIT: VoteKind.RBC_INIT,
                self.ECHO: VoteKind.RBC_ECHO,
                self.READY: VoteKind.RBC_READY,
            }
            expected = kind_map.get(kind)
            if expected is not None:
                self._verified_vote(body, sender, expected)
            return
        if kind == self.INIT:
            self._handle_init(sender, body)
        elif kind == self.ECHO:
            self._handle_echo(sender, body)
        elif kind == self.READY:
            self._handle_ready(sender, body)

    def _verified_vote(
        self, body: Dict[str, Any], sender: ReplicaId, expected_kind: VoteKind
    ) -> Optional[SignedVote]:
        payload = body.get("vote")
        if payload is None:
            return None
        try:
            vote = vote_from_payload(payload)
        except (KeyError, ValueError, TypeError):
            return None
        if vote.signer != sender or vote.context != self.context:
            return None
        if vote.kind != expected_kind or vote.value_digest != body.get("digest"):
            return None
        if not verify_vote(vote, self.host):
            return None
        self.collected_votes.append(vote)
        return vote

    def _handle_init(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        if sender != self.proposer:
            return
        vote = self._verified_vote(body, sender, VoteKind.RBC_INIT)
        if vote is None:
            return
        digest = body["digest"]
        if hash_payload(body.get("value")) != digest:
            return
        self._values[digest] = body.get("value")
        self._send_echo(body.get("value"), digest)

    def _handle_echo(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        vote = self._verified_vote(body, sender, VoteKind.RBC_ECHO)
        if vote is None:
            return
        digest = body["digest"]
        value = body.get("value")
        if value is not None:
            # Message bodies cross the simulated wire by reference, so every
            # honest echo carries the *same* value object the INIT did; an
            # identity match against the already-verified stored value skips
            # the O(|value|) rehash.  Any other object (equivocation, a
            # tampered body) still pays the full digest check.
            stored = self._values.get(digest)
            if stored is None:
                if hash_payload(value) != digest:
                    return
                self._values[digest] = value
            elif stored is not value and hash_payload(value) != digest:
                return
        votes = self._echo_votes.setdefault(digest, {})
        votes.setdefault(sender, vote)
        if len(votes) >= self._quorum():
            self._send_ready(digest)
        self._maybe_deliver(digest)

    def _handle_ready(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        vote = self._verified_vote(body, sender, VoteKind.RBC_READY)
        if vote is None:
            return
        digest = body["digest"]
        value = body.get("value")
        if value is not None and digest not in self._values:
            # Once a verified value is stored the setdefault below was a
            # no-op either way, so the rehash is only needed on first sight.
            if hash_payload(value) == digest:
                self._values[digest] = value
        votes = self._ready_votes.setdefault(digest, {})
        votes.setdefault(sender, vote)
        if len(votes) >= self._ready_support():
            self._send_ready(digest)
        self._maybe_deliver(digest)

    def _maybe_deliver(self, digest: str) -> None:
        if self.delivered:
            return
        ready = self._ready_votes.get(digest, {})
        if len(ready) < self._quorum():
            return
        if digest not in self._values:
            # The value has not reached us yet; deliver as soon as it does
            # (a later ECHO/READY carrying it will retrigger this check).
            return
        self.delivered = True
        self.delivered_value = self._values[digest]
        certificate = Certificate.from_votes(ready.values())
        probe = self._probe
        if probe is not None:
            self._phase("deliver", "rbc.deliver_s")
            probe.count("rbc.delivered")
            probe.observe("rbc.certificate_votes", len(certificate.votes))
            probe.finish(self._span, self.host.now)
        self.on_deliver(self.proposer, self.delivered_value, certificate)
