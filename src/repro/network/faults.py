"""Link faults: the one place that decides which messages a fault drops.

Both transport backends ask a :class:`LinkFaults` whether a message passes,
and count (``messages_dropped``) and report (``probe.on_drop``) each drop.
A **cut** replica sends and receives nothing, in-flight messages to it
included, until it is healed.  A **lossy** link loses each message to each
target with probability ``loss_rate``, drawn at send from the seam's own RNG
(not the delay stream): a seed loses the same messages on either backend,
and a lost message never reaches an event queue.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import ReplicaId


class LinkFaults:
    """The cut replicas and the loss rate of one run.  A backend calls
    :meth:`reachable` at send, only while either is set, and drops on arrival
    a message whose recipient is in ``cut_replicas`` (read in place: it is
    only ever mutated, never rebound) — no call on a fault-free message."""

    def __init__(self, loss_rate: float = 0.0, seed: int = 0):
        if not 0 <= loss_rate < 1:
            raise ConfigurationError("loss_rate must be within [0, 1)")
        self.loss_rate = loss_rate
        self.cut_replicas: Set[ReplicaId] = set()
        self._rng = random.Random(f"link-faults:{seed}")

    def cut(self, replica_id: ReplicaId) -> None:
        """Drop all traffic from and to ``replica_id``, in flight included."""
        self.cut_replicas.add(replica_id)

    def heal(self, replica_id: ReplicaId) -> None:
        """Lift a previous :meth:`cut`."""
        self.cut_replicas.discard(replica_id)

    def reachable(
        self, sender: ReplicaId, targets: Sequence[ReplicaId]
    ) -> List[Tuple[int, ReplicaId]]:
        """The ``(order, target)`` pairs a message from ``sender`` is sent to;
        it is dropped for every other target.  One loss draw per target that
        neither end cuts, in target order."""
        cut = self.cut_replicas
        if sender in cut:
            return []
        rate = self.loss_rate
        draw = self._rng.random
        return [
            (order, target)
            for order, target in enumerate(targets)
            if target not in cut and (not rate or draw() >= rate)
        ]
