"""Typed message envelopes exchanged between simulated replicas.

Every protocol message travels inside a :class:`Message`: a slotted envelope
naming the sender, the recipient, the :class:`~repro.network.topic.Topic` that
should consume it, a message ``kind`` within that protocol and a free-form
``body``.  Signed content (votes, echoes, certificates) is carried inside the
body as :class:`~repro.crypto.signatures.SignedPayload` objects so
accountability can later re-verify it independently of the envelope.

Broadcasts share **one** envelope across all recipients (the simulator fills
in ``recipient`` as each delivery pops); bodies are shared too and treated as
immutable once sent.  The envelope memoises its estimated wire size so
telemetry-enabled runs never re-walk a body dictionary twice.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from repro.common.types import ReplicaId
from repro.network.topic import Topic, TopicLike, as_topic

_message_counter = itertools.count()


class Message:
    """A network message envelope.

    Attributes:
        sender: replica id of the sender (as claimed on the wire; protocols
            that care about authenticity verify the signed content instead).
        recipient: replica id of the destination; ``None`` on a broadcast
            envelope until the simulator stamps each delivery.
        topic: the protocol topic that should consume the message, e.g.
            ``Topic.of("sbc", 0, 5, "rbc", 2)`` (epoch 0, consensus instance
            5, reliable broadcast of proposer 2).
        kind: message kind within the protocol, e.g. ``"ECHO"``.
        body: free-form payload dictionary (shared, never copied).
        uid: unique, monotonically increasing message id (simulation-local);
            useful for deterministic tie-breaking and debugging.
        trace_ctx: optional :class:`~repro.obs.trace.TraceContext` stamped
            by the simulator at submission time when tracing is enabled
            (``None`` otherwise); deliveries open child spans under it.
    """

    __slots__ = (
        "sender",
        "recipient",
        "topic",
        "kind",
        "body",
        "uid",
        "trace_ctx",
        "_size",
    )

    def __init__(
        self,
        sender: ReplicaId,
        recipient: Optional[ReplicaId],
        protocol: TopicLike,
        kind: str,
        body: Optional[Dict[str, Any]] = None,
        uid: Optional[int] = None,
    ):
        self.sender = sender
        self.recipient = recipient
        self.topic = protocol if type(protocol) is Topic else as_topic(protocol)
        self.kind = kind
        self.body: Dict[str, Any] = {} if body is None else body
        self.uid = next(_message_counter) if uid is None else uid
        self.trace_ctx: Optional[Any] = None
        self._size: Optional[int] = None

    @property
    def protocol(self) -> str:
        """Canonical string form of the topic (logs, legacy assertions)."""
        return self.topic.canonical

    def size_bytes(self) -> int:
        """Memoised exact wire size: the codec's length-prefixed frame length.

        This is what the asyncio transport writes per recipient for an
        untraced message, so per-protocol byte counters in telemetry/obs mean
        the same thing under the simulator and the real backend.  The optional
        trace-context tail is excluded on purpose: counters must not change
        when tracing stamps a context (see ``codec.message_frame_size``).
        Bodies carrying objects the codec does not know (test doubles) fall
        back to the canonical-encoding estimate (:func:`estimate_size_bytes`).
        """
        size = self._size
        if size is None:
            from repro.network.codec import CodecError, message_frame_size

            try:
                size = message_frame_size(self)
            except (CodecError, TypeError):
                size = estimate_size_bytes(self.body)
            self._size = size
        return size

    def with_recipient(self, recipient: ReplicaId) -> "Message":
        """Return a copy of the message addressed to ``recipient``.

        The body dictionary is shared, not copied: protocol code treats bodies
        as immutable once sent.  A fresh ``uid`` is allocated so each copy can
        be traced individually.
        """
        copy = Message(
            sender=self.sender,
            recipient=recipient,
            protocol=self.topic,
            kind=self.kind,
            body=self.body,
        )
        copy.trace_ctx = self.trace_ctx
        copy._size = self._size
        return copy

    def describe(self) -> str:
        """Short human-readable description used in logs and error messages.

        Includes the interned topic string and, when the message rides a
        trace, its ``tN:sM`` context — flight-recorder dumps and assertion
        messages are self-describing.
        """
        base = (
            f"{self.topic.canonical}/{self.kind} "
            f"from {self.sender} to {self.recipient}"
        )
        ctx = self.trace_ctx
        if ctx is not None:
            return f"{base} [{ctx.fmt()}]"
        return base

    def __repr__(self) -> str:
        return f"Message({self.describe()}, uid={self.uid})"


def reset_message_counter() -> None:
    """Reset the global message uid counter (test isolation helper)."""
    global _message_counter
    _message_counter = itertools.count()


def estimate_size_bytes(body: Dict[str, Any], base_overhead: int = 64) -> int:
    """Rough wire-size estimate of a message body, used by the cost models.

    The estimate counts canonical-encoding bytes plus a fixed envelope
    overhead.  It only needs to be *consistent*, not exact: the throughput
    model compares protocols whose messages are estimated the same way.
    """
    from repro.crypto.hashing import canonical_bytes

    try:
        return base_overhead + len(canonical_bytes(body))
    except TypeError:
        # Bodies containing non-canonical objects (rare, test-only) fall back
        # to a conservative flat estimate.
        return base_overhead + 512
