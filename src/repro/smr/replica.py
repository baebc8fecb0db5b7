"""The base replica: a simulated process hosting protocol components.

A :class:`BaseReplica` is both a :class:`~repro.network.router.RoutedProcess`
(it receives messages from the simulator and dispatches them through its
:class:`~repro.network.router.Router`) and a
:class:`~repro.consensus.host.ProtocolHost` (components use it for identity,
signing, verification and emission).  Components register a handler per topic
prefix — e.g. the reliable broadcast of one slot of one Set Byzantine
Consensus instance owns ``("sbc", epoch, instance, "rbc", slot)`` — and an
incoming message reaches its component in one dict lookup.

The emission path carries the hook where deceitful behaviour plugs in: when an
:class:`~repro.adversary.behaviors.AttackStrategy` is installed, outgoing
broadcasts pass through it and may be rewritten per partition (equivocation).
Honest replicas have no strategy and broadcast uniformly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from repro.common.types import FaultKind, ReplicaId
from repro.consensus.host import ProtocolHost
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SignedPayload, Signer
from repro.network.message import Message
from repro.network.router import RoutedProcess
from repro.network.topic import Topic, TopicLike


class BaseReplica(RoutedProcess, ProtocolHost):
    """A replica process that dispatches messages to registered topic handlers."""

    def __init__(
        self,
        replica_id: ReplicaId,
        committee: Sequence[ReplicaId],
        signer: Signer,
        registry: KeyRegistry,
        fault: FaultKind = FaultKind.HONEST,
    ):
        RoutedProcess.__init__(self, replica_id)
        self._set_committee(committee)
        self._signer = signer
        self._registry = registry
        self.fault = fault
        self.attack_strategy: Optional[Any] = None

    # -- ProtocolHost: identity and committee ------------------------------------

    @property
    def replica_id(self) -> ReplicaId:  # type: ignore[override]
        return self._replica_id

    @replica_id.setter
    def replica_id(self, value: ReplicaId) -> None:
        self._replica_id = value

    def committee(self) -> Sequence[ReplicaId]:
        return list(self._committee)

    def committee_size(self) -> int:
        return len(self._committee)

    def update_committee(self, committee: Iterable[ReplicaId]) -> None:
        """Replace this replica's committee view (membership changes)."""
        self._set_committee(committee)

    # -- ProtocolHost: crypto ------------------------------------------------------

    def sign(self, payload: Any, digest: Optional[str] = None) -> SignedPayload:
        return self._signer.sign(payload, digest)

    def verify(self, payload: Any, signed: SignedPayload) -> bool:
        return self._registry.verify(payload, signed)

    def verify_digest(self, digest: str, signed: SignedPayload) -> bool:
        return self._registry.verify_digest(digest, signed)

    @property
    def verification_token(self) -> int:
        return self._registry.verification_token

    @property
    def registry(self) -> KeyRegistry:
        """The PKI shared by the deployment."""
        return self._registry

    # -- ProtocolHost: time ----------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> int:
        return self.set_timer(delay, callback)

    # -- ProtocolHost: emission ---------------------------------------------------------

    def emit(
        self,
        protocol: TopicLike,
        kind: str,
        body: Dict[str, Any],
        recipients: Optional[Iterable[ReplicaId]] = None,
    ) -> None:
        targets = list(recipients) if recipients is not None else self._committee
        if self.attack_strategy is not None:
            handled = self.attack_strategy.rewrite_broadcast(
                replica=self, protocol=protocol, kind=kind, body=body, recipients=targets
            )
            if handled:
                return
        self.broadcast(protocol, kind, body, recipients=targets)

    def emit_to(self, recipient: ReplicaId, protocol: TopicLike, kind: str, body: Dict[str, Any]) -> None:
        self.send_to(recipient, protocol, kind, body)

    # -- message routing ------------------------------------------------------------------

    def route(self, topic: Topic, sender: ReplicaId, kind: str, body: Dict[str, Any]) -> bool:
        """Dispatch a message through the router; returns False when unowned."""
        return self.router.dispatch(topic, sender, kind, body)

    def on_message(self, message: Message) -> None:
        if self.fault is FaultKind.BENIGN:
            # Benign replicas commit omission-style faults: they stay mute and
            # ignore the protocol entirely (§3.2 "benign fault").
            return
        if self.attack_strategy is not None and not self.attack_strategy.filter_incoming(
            self, message
        ):
            return
        # ``RoutedProcess.on_message`` written out (one frame per delivery):
        # change the two together.
        if not self.router.dispatch(
            message.topic, message.sender, message.kind, message.body
        ):
            self._note_unrouted(message)
