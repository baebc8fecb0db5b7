"""Bracha reliable broadcast with accountable (signed) echoes.

One instance disseminates one proposer's value to the whole committee.  Only
``INIT`` ships the value unasked; the votes carry its digest:

* the proposer broadcasts ``INIT{value, digest, vote}``;
* on ``INIT``, replicas broadcast a signed ``ECHO{digest, vote}``;
* on a quorum (``ceil(2n/3)``) of matching ``ECHO`` or ``ceil(n/3)`` matching
  ``READY``, replicas broadcast a signed ``READY{digest, vote}``;
* on a quorum of matching ``READY`` *and* the value whose hash is the digest,
  the value is *delivered*.

**Pull on miss.**  A replica whose ``INIT`` is late, lost or withheld learns
the digest from the votes.  Once ``recovery_threshold`` (``ceil(n/3)``)
distinct remote signers have vouched for a digest — by ``ECHO`` or ``READY`` —
whose value it lacks, it sends ``FETCH{digest}`` to the *first* of them.  Only
when that is not enough does it ask further vouchers, in the order they
vouched and never more than ``recovery_threshold`` per digest: one more for
every ``VALUE`` whose hash mismatches, all of them once the ``READY`` quorum
is in and the value is all that delivery waits for.  It stores the first
``VALUE{digest, value}`` whose hash matches.  So a value crosses a link once
when the ``INIT`` is on time, and one extra link per replica its ``INIT`` was
late for (under geo-distributed delays the echoes of near replicas routinely
beat a far proposer's ``INIT``).  Among ``recovery_threshold`` vouchers one is
correct whenever fewer than a third of the committee is not, and a correct
voucher either holds the value or is pulling it too: a ``FETCH`` that arrives
before the value is answered when the value does.  The serving side answers
at most once per ``(requester, digest)``, only committee members, only for a
digest it holds or has seen vouched for, and keeps answering after the
instance delivered.  A ``VALUE`` nobody asked that sender for, a second one,
or one whose hash mismatches is dropped without being stored.

The signed INIT/ECHO/READY votes double as accountability material: a replica
that echoes two different digests for the same instance produces a proof of
fraud when its two votes are cross-checked (this is exactly what the paper's
"reliable broadcast attack" does, §B).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from repro.common.types import ReplicaId
from repro.consensus.certificates import (
    Certificate,
    CollectedVotes,
    SignedVote,
    VoteKind,
    collect_vote,
    make_vote,
    verify_vote,
    vote_from_payload,
)
from repro.consensus.host import ProtocolHost
from repro.crypto.hashing import hash_payload
from repro.network.topic import Topic, TopicLike, as_topic
from repro.obs.trace import topic_trace_attrs

#: Callback signature: (proposer, value, ready_certificate)
DeliverCallback = Callable[[ReplicaId, Any, Certificate], None]


class ReliableBroadcast:
    """One reliable-broadcast instance for a single (instance, proposer) slot."""

    INIT = "INIT"
    ECHO = "ECHO"
    READY = "READY"
    FETCH = "FETCH"
    VALUE = "VALUE"

    #: The signed vote each vote-carrying message kind must embed.
    VOTE_KINDS = {
        INIT: VoteKind.RBC_INIT,
        ECHO: VoteKind.RBC_ECHO,
        READY: VoteKind.RBC_READY,
    }

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
        self.delivered_digest: Optional[str] = None
        # Instrumentation (None when off): phase latencies are measured from
        # the first local activity of the instance, a span covers first
        # activity to delivery, and phase events carry the instance/slot.
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
        #: digest -> value, hash-checked before it is stored.
        self._values: Dict[str, Any] = {}
        # Pull-on-miss state, by digest: the first ``recovery_threshold``
        # distinct remote signers that vouched for a value we lack (arrival
        # order), how many of them a FETCH went to (always a prefix) and
        # whether each answered, the requesters already served, and the
        # requesters to serve once the value is here.
        self._vouchers: Dict[str, List[ReplicaId]] = {}
        self._asked: Dict[str, Dict[ReplicaId, bool]] = {}
        self._served: Dict[str, Set[ReplicaId]] = {}
        self._waiting: Dict[str, List[ReplicaId]] = {}
        # Every verified vote seen, kept for accountability cross-checks.
        self._collected: CollectedVotes = {}

    @property
    def collected_votes(self) -> List[SignedVote]:
        """Every verified vote seen, a statement once, in arrival order."""
        return list(self._collected.values())

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
        collect_vote(self._collected, vote)
        self.host.emit(
            self.topic,
            self.INIT,
            {"value": value, "digest": digest, "vote": vote.to_payload()},
        )

    def _send_echo(self, digest: str) -> None:
        if self._echo_sent:
            return
        self._echo_sent = True
        if self._probe is not None:
            self._phase("echo", "rbc.init_to_echo_s")
        vote = make_vote(self.host, self.context, 0, VoteKind.RBC_ECHO, digest)
        collect_vote(self._collected, vote)
        self.host.emit(self.topic, self.ECHO, {"digest": digest, "vote": vote.to_payload()})

    def _send_ready(self, digest: str) -> None:
        if self._ready_sent:
            return
        self._ready_sent = True
        if self._probe is not None:
            self._phase("ready", "rbc.init_to_ready_s")
        vote = make_vote(self.host, self.context, 0, VoteKind.RBC_READY, digest)
        collect_vote(self._collected, vote)
        self.host.emit(self.topic, self.READY, {"digest": digest, "vote": vote.to_payload()})

    def _send_value(self, requester: ReplicaId, digest: str) -> None:
        self._served.setdefault(digest, set()).add(requester)
        self.host.emit_to(
            requester,
            self.topic,
            self.VALUE,
            {"digest": digest, "value": self._values[digest]},
        )

    # -- receiving ----------------------------------------------------------------

    def handle(self, topic: Topic, sender: ReplicaId, kind: str, body: Dict[str, Any]) -> None:
        """Process a message of this instance.

        The router's handler signature: the component is registered under its
        own ``topic`` and has no use for the argument (a message sent *below*
        that topic matches the route too and is read as sent on it; what binds
        a vote to the instance is its signed context)."""
        if self._started_at is None:
            self._mark_started()
        if self.delivered:
            # Keep collecting signed votes after delivery: a deceitful replica
            # equivocating towards the other partition leaves its conflicting
            # vote here, ready for cross-checking during confirmation.  And
            # keep serving the value: a slower replica may still be pulling it.
            expected = self.VOTE_KINDS.get(kind)
            if expected is not None:
                self._verified_vote(body, sender, expected)
            elif kind == self.FETCH:
                self._handle_fetch(sender, body)
            return
        if kind == self.ECHO:
            self._handle_echo(sender, body)
        elif kind == self.READY:
            self._handle_ready(sender, body)
        elif kind == self.INIT:
            self._handle_init(sender, body)
        elif kind == self.FETCH:
            self._handle_fetch(sender, body)
        elif kind == self.VALUE:
            self._handle_value(sender, body)

    def _verified_vote(
        self, body: Dict[str, Any], sender: ReplicaId, expected_kind: VoteKind
    ) -> Optional[SignedVote]:
        try:
            vote = vote_from_payload(body["vote"])
            digest = body["digest"]
        except (KeyError, ValueError, TypeError):
            return None
        if vote.signer != sender or vote.context != self.context:
            return None
        if vote.kind != expected_kind or vote.value_digest != digest:
            return None
        if not verify_vote(vote, self.host):
            return None
        collect_vote(self._collected, vote)
        return vote

    def _handle_init(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        if sender != self.proposer:
            return
        vote = self._verified_vote(body, sender, VoteKind.RBC_INIT)
        if vote is None:
            return
        digest = vote.value_digest
        value = body.get("value")
        if digest not in self._values:
            if hash_payload(value) != digest:
                return
            self._store(digest, value)
        self._send_echo(digest)

    def _handle_echo(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        vote = self._verified_vote(body, sender, VoteKind.RBC_ECHO)
        if vote is None:
            return
        digest = vote.value_digest
        votes = self._echo_votes.setdefault(digest, {})
        votes.setdefault(sender, vote)
        if len(votes) >= self.host.quorum:
            self._send_ready(digest)
        if digest not in self._values:
            self._vouched(sender, digest)
        self._maybe_deliver(digest)

    def _handle_ready(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        vote = self._verified_vote(body, sender, VoteKind.RBC_READY)
        if vote is None:
            return
        digest = vote.value_digest
        votes = self._ready_votes.setdefault(digest, {})
        votes.setdefault(sender, vote)
        if len(votes) >= self.host.support:
            self._send_ready(digest)
        if digest not in self._values:
            self._vouched(sender, digest)
        self._maybe_deliver(digest)

    def recheck(self) -> None:
        """Re-apply the thresholds to the votes held (the committee shrank)."""
        for digest, votes in list(self._echo_votes.items()):
            if len(votes) >= self.host.quorum:
                self._send_ready(digest)
        for digest, votes in list(self._ready_votes.items()):
            if len(votes) >= self.host.support:
                self._send_ready(digest)
            self._maybe_deliver(digest)

    # -- pull on miss ---------------------------------------------------------------

    def _vouched(self, sender: ReplicaId, digest: str) -> None:
        """``sender`` signed for ``digest`` and we lack the value: once
        ``recovery_threshold`` distinct remote signers did, ask the first."""
        if sender == self.host.replica_id:
            return
        vouchers = self._vouchers.setdefault(digest, [])
        cap = self.host.support
        if sender in vouchers or len(vouchers) >= cap:
            return
        vouchers.append(sender)
        if len(vouchers) == cap:
            self._fetch(digest, 1)

    def _fetch(self, digest: str, upto: int) -> None:
        """Have a FETCH out to the first ``upto`` vouchers of ``digest``."""
        asked = self._asked.setdefault(digest, {})
        for voucher in self._vouchers.get(digest, ())[len(asked):upto]:
            asked[voucher] = False
            self.host.emit_to(voucher, self.topic, self.FETCH, {"digest": digest})

    def _handle_fetch(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        digest = body.get("digest")
        if not isinstance(digest, str) or sender not in self.host.committee():
            return
        if sender in self._served.get(digest, ()):
            return
        if digest in self._values:
            self._send_value(sender, digest)
        elif digest in self._vouchers:
            # Vouched for but not here yet (we may be pulling it ourselves):
            # answer when it lands.
            waiting = self._waiting.setdefault(digest, [])
            if sender not in waiting:
                waiting.append(sender)

    def _handle_value(self, sender: ReplicaId, body: Dict[str, Any]) -> None:
        digest = body.get("digest")
        asked = self._asked.get(digest) if isinstance(digest, str) else None
        if asked is None or asked.get(sender) is not False:
            return
        asked[sender] = True
        if digest in self._values:
            return
        value = body.get("value")
        if hash_payload(value) == digest:
            self._store(digest, value)
        else:
            self._fetch(digest, len(asked) + 1)

    def _store(self, digest: str, value: Any) -> None:
        """Keep a hash-checked value, serve whoever waited for it, and deliver
        if the READY quorum was only waiting for the value."""
        self._values[digest] = value
        for requester in self._waiting.pop(digest, ()):
            self._send_value(requester, digest)
        self._maybe_deliver(digest)

    def _maybe_deliver(self, digest: str) -> None:
        if self.delivered:
            return
        ready = self._ready_votes.get(digest, {})
        if len(ready) < self.host.quorum:
            return
        if digest not in self._values:
            # The value is all that is missing: ask every voucher not asked
            # yet.  ``_store`` retriggers this check when the INIT or a
            # pulled VALUE brings it.
            self._fetch(digest, self.host.support)
            return
        self.delivered = True
        self.delivered_value = self._values[digest]
        self.delivered_digest = digest
        certificate = Certificate.from_votes(ready.values())
        probe = self._probe
        if probe is not None:
            self._phase("deliver", "rbc.deliver_s")
            probe.count("rbc.delivered")
            probe.observe("rbc.certificate_votes", len(certificate.votes))
            probe.finish(self._span, self.host.now)
        self.on_deliver(self.proposer, self.delivered_value, certificate)
