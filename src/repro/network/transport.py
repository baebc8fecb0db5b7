"""The transport seam: what a replica needs from "the network".

Protocol code never talks to a concrete network implementation.  A
:class:`Process` binds to a :class:`Transport` — an object providing message
submission, fan-out broadcast, timers, a clock and a membership view — and
everything above the seam (routers, protocol hosts, replicas, whole ZLB
deployments) is oblivious to what sits below it:

* :class:`~repro.network.simulator.NetworkSimulator` — the deterministic
  discrete-event backend: virtual time, seeded delays, by-reference delivery.
* :class:`~repro.network.asyncio_transport.AsyncioTransport` — the real
  backend: asyncio TCP/UNIX-domain sockets, wall-clock timers, and the wire
  codec (:mod:`repro.network.codec`) serialising every envelope.

The split mirrors the two halves of the interface:

* :class:`Clock` — time and timers (``now`` / ``schedule`` / ``cancel``).
* :class:`Transport` — a clock plus delivery (``submit`` /
  ``submit_broadcast``), membership (``add_process`` / ``membership_view``)
  and link control (``disconnect`` / ``reconnect``).

Implementations must honour the delivery contract protocol code relies on:
messages submitted by a process are delivered *asynchronously* (never
re-entrantly from inside ``submit``), and a broadcast reaches every target in
``targets`` exactly once, including the sender when listed.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.common.logging import replica_logger
from repro.common.types import ReplicaId
from repro.network.message import Message


class Clock:
    """Time source plus timer scheduling (one half of the transport seam)."""

    @property
    def now(self) -> float:
        """Current time in seconds (simulated or wall-clock)."""
        raise NotImplementedError

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        owner: Optional[ReplicaId] = None,
    ) -> int:
        """Run ``callback`` after ``delay`` seconds; returns a timer id."""
        raise NotImplementedError

    def cancel(self, timer_id: int) -> None:
        """Cancel a pending timer; firing or fired timers are ignored."""
        raise NotImplementedError


class Transport(Clock):
    """A clock plus message delivery, membership and link control."""

    #: The run's :class:`~repro.obs.core.Probe`, or None (uninstrumented).
    #: Processes cache it once at bind time and guard every instrumented
    #: path with one ``is not None``.
    probe: Optional[Any] = None

    # -- membership ----------------------------------------------------------

    def add_process(self, process: "Process") -> None:
        """Register a process and bind it to this transport."""
        raise NotImplementedError

    def remove_process(self, replica_id: ReplicaId) -> None:
        """Remove a process; in-flight messages to it are dropped."""
        raise NotImplementedError

    def membership_view(self) -> Tuple[ReplicaId, ...]:
        """Sorted tuple of reachable replica ids (do not mutate)."""
        raise NotImplementedError

    def disconnect(self, replica_id: ReplicaId) -> None:
        """Drop all future traffic to and from ``replica_id``."""
        raise NotImplementedError

    def reconnect(self, replica_id: ReplicaId) -> None:
        """Lift a previous :meth:`disconnect`."""
        raise NotImplementedError

    # -- delivery ------------------------------------------------------------

    def submit(self, message: Message) -> None:
        """Queue a point-to-point message for asynchronous delivery."""
        raise NotImplementedError

    def submit_broadcast(self, message: Message, targets: Sequence[ReplicaId]) -> None:
        """Deliver one broadcast envelope to every replica in ``targets``."""
        raise NotImplementedError


class Process:
    """Base class of every replica/protocol endpoint.

    Subclasses implement :meth:`on_message` and may override :meth:`on_start`.
    A process may only send messages once it has been bound to a transport
    (the discrete-event simulator or a real asyncio transport — protocol code
    cannot tell the difference).
    """

    def __init__(self, replica_id: ReplicaId):
        self.replica_id = replica_id
        self._transport: Optional[Transport] = None
        #: The transport's probe (or None when uninstrumented), cached at
        #: bind time so hot protocol paths pay a plain attribute load plus a
        #: None check.
        self.probe: Optional[Any] = None
        #: Per-replica logger injecting id, transport time and trace context.
        self.log = replica_logger(self)

    # -- lifecycle -----------------------------------------------------------

    def bind(self, transport: Transport) -> None:
        """Attach the process to a transport (called by ``add_process``)."""
        self._transport = transport
        self.probe = transport.probe

    @property
    def transport(self) -> Transport:
        if self._transport is None:
            raise SimulationError(
                f"process {self.replica_id} is not attached to a transport"
            )
        return self._transport

    @property
    def now(self) -> float:
        """Current transport time in seconds."""
        return self.transport.now

    # -- communication -------------------------------------------------------

    def send(self, message: Message) -> None:
        """Send a point-to-point message."""
        self.transport.submit(message)

    def send_to(self, recipient: ReplicaId, protocol, kind: str, body: dict) -> None:
        """Convenience wrapper building the envelope and sending it."""
        self.send(
            Message(
                sender=self.replica_id,
                recipient=recipient,
                protocol=protocol,
                kind=kind,
                body=body,
            )
        )

    def broadcast(
        self,
        protocol,
        kind: str,
        body: dict,
        include_self: bool = True,
        recipients: Optional[Iterable[ReplicaId]] = None,
    ) -> None:
        """Send the same message to every replica known to the transport.

        ``recipients`` restricts the broadcast (used by deceitful replicas to
        equivocate towards specific partitions).  One envelope and one submit
        call serve every recipient; without an explicit recipient list the
        transport's cached membership view is used directly (no re-sorting).
        """
        transport = self.transport
        if recipients is not None:
            if include_self:
                targets: Sequence[ReplicaId] = list(recipients)
            else:
                targets = [r for r in recipients if r != self.replica_id]
        else:
            view = transport.membership_view()
            if include_self:
                targets = view
            else:
                targets = [r for r in view if r != self.replica_id]
        message = Message(
            sender=self.replica_id,
            recipient=None,
            protocol=protocol,
            kind=kind,
            body=body,
        )
        transport.submit_broadcast(message, targets)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` to run after ``delay`` transport seconds."""
        return self.transport.schedule(delay, callback, owner=self.replica_id)

    # -- protocol hooks ------------------------------------------------------

    def on_start(self) -> None:
        """Hook invoked when the transport starts (before any message)."""

    def on_message(self, message: Message) -> None:
        """Handle a delivered message."""
        raise NotImplementedError
