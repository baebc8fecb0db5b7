"""Hierarchical topic router: longest-prefix dispatch over topic segments.

A :class:`Router` maps topic *prefixes* to handlers and invokes the handler
registered at the **deepest** matching prefix, so a specific registration
(``("sbc", 0, 3)`` — one consensus instance) shadows a general fallback
(``("sbc",)`` — "unknown instance, create it lazily").

It keeps one dict per registered prefix *length*, keyed by the prefix's
segment tuple, and dispatch probes ``segments[:length]`` from the longest
registered length down: a message for a live consensus instance is found by
the first lookup, and the number of lookups is bounded by the handful of
lengths in use (four on a ZLB replica, a fifth while a membership change
runs), whatever the topic's depth.  The
tables hold one entry per *registered* prefix and nothing per topic seen —
no resolved-route cache to invalidate on ``register`` / ``unregister``, and
nothing a peer inventing topics can grow.

This replaces the seed's routing scheme, where every delivered message was
matched against each hosted component with ``protocol.startswith(...)`` chains
and per-slot f-string rebuilding.

:class:`RoutedProcess` is the glue between the router and the simulator's
:class:`~repro.network.simulator.Process`: replicas and baseline protocols
subclass it, register their handlers per topic prefix, and never look at
protocol strings again.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.network.simulator import Process
from repro.network.topic import Segment, Topic, TopicLike, as_topic

#: Handler signature: (topic, sender, kind, body).
Handler = Callable[[Topic, Any, str, Dict[str, Any]], None]

#: Handlers of every registered prefix of one length, by segment tuple.
_Table = Dict[Tuple[Segment, ...], Handler]


class Router:
    """Longest-prefix handler registry over topic segments."""

    __slots__ = ("_tables",)

    def __init__(self):
        #: ``(prefix length, table)`` pairs, longest first, none empty.
        self._tables: List[Tuple[int, _Table]] = []

    def register(self, prefix: TopicLike, handler: Handler) -> None:
        """Register ``handler`` for every topic under ``prefix``.

        Registering a deeper prefix shadows a shallower one; re-registering
        the same prefix replaces the previous handler (components re-register
        across epochs).
        """
        segments = as_topic(prefix).segments
        depth = len(segments)
        for length, table in self._tables:
            if length == depth:
                table[segments] = handler
                return
        self._tables.append((depth, {segments: handler}))
        self._tables.sort(key=itemgetter(0), reverse=True)

    def unregister(self, prefix: TopicLike) -> bool:
        """Remove the handler at exactly ``prefix``; drops a table it empties.

        Returns False when no handler was registered at that prefix.
        """
        segments = as_topic(prefix).segments
        depth = len(segments)
        for index, (length, table) in enumerate(self._tables):
            if length == depth:
                if table.pop(segments, None) is None:
                    return False
                if not table:
                    del self._tables[index]
                return True
        return False

    def resolve(self, topic: TopicLike) -> Optional[Handler]:
        """The handler the router would dispatch ``topic`` to, or None."""
        segments = as_topic(topic).segments
        for length, table in self._tables:
            handler = table.get(segments[:length])
            if handler is not None:
                return handler
        return None

    def dispatch(self, topic: Topic, sender: Any, kind: str, body: Dict[str, Any]) -> bool:
        """Route one message; returns False when no prefix matched."""
        segments = topic.segments
        for length, table in self._tables:
            # A topic shorter than ``length`` slices to itself and cannot
            # equal a key of that table: every key there has ``length`` items.
            handler = table.get(segments[:length])
            if handler is not None:
                handler(topic, sender, kind, body)
                return True
        return False


class RoutedProcess(Process):
    """A simulated process whose messages are dispatched through a Router."""

    def __init__(self, replica_id):
        super().__init__(replica_id)
        self.router = Router()
        #: Messages no registered prefix claimed (observability).
        self.unrouted_messages = 0

    def on_message(self, message) -> None:
        # ``BaseReplica.on_message`` writes this out after its own filters
        # (one frame per delivery): change the two together.
        if not self.router.dispatch(
            message.topic, message.sender, message.kind, message.body
        ):
            self._note_unrouted(message)

    def _note_unrouted(self, message) -> None:
        self.unrouted_messages += 1
        # Cold path: unrouted traffic is a routing-table bug or late
        # cross-epoch chatter — worth a debug line either way.
        self.log.debug("unrouted message: %s", message.describe())
