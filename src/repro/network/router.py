"""Hierarchical topic router: longest-prefix dispatch over topic segments.

A :class:`Router` maps topic *prefixes* to handlers.  Dispatch walks the
segments of an incoming topic through a trie of dicts — O(depth) dict lookups
— and invokes the handler registered at the **deepest** matching prefix, so a
specific registration (``("sbc", 0, 3)`` — one consensus instance) shadows a
general fallback (``("sbc",)`` — "unknown instance, create it lazily").

This replaces the seed's routing scheme, where every delivered message was
matched against each hosted component with ``protocol.startswith(...)`` chains
and per-slot f-string rebuilding.

:class:`RoutedProcess` is the glue between the router and the simulator's
:class:`~repro.network.simulator.Process`: replicas and baseline protocols
subclass it, register their handlers per topic prefix, and never look at
protocol strings again.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.network.simulator import Process
from repro.network.topic import Segment, Topic, TopicLike, as_topic
from repro.obs.metrics import protocol_group

#: Handler signature: (topic, sender, kind, body).
Handler = Callable[[Topic, Any, str, Dict[str, Any]], None]


class _Node:
    """One trie node: children per segment plus an optional handler."""

    __slots__ = ("children", "handler")

    def __init__(self):
        self.children: Dict[Segment, _Node] = {}
        self.handler: Optional[Handler] = None


class Router:
    """Longest-prefix handler registry over topic segments."""

    __slots__ = ("_root",)

    def __init__(self):
        self._root = _Node()

    def register(self, prefix: TopicLike, handler: Handler) -> None:
        """Register ``handler`` for every topic under ``prefix``.

        Registering a deeper prefix shadows a shallower one; re-registering
        the same prefix replaces the previous handler (components re-register
        across epochs).
        """
        node = self._root
        for segment in as_topic(prefix).segments:
            child = node.children.get(segment)
            if child is None:
                child = _Node()
                node.children[segment] = child
            node = child
        node.handler = handler

    def unregister(self, prefix: TopicLike) -> bool:
        """Remove the handler at exactly ``prefix``; prunes empty trie nodes.

        Returns False when no handler was registered at that prefix.
        """
        path: List[Tuple[_Node, Segment]] = []
        node = self._root
        for segment in as_topic(prefix).segments:
            child = node.children.get(segment)
            if child is None:
                return False
            path.append((node, segment))
            node = child
        if node.handler is None:
            return False
        node.handler = None
        # Prune nodes that no longer carry handlers or children.
        for parent, segment in reversed(path):
            child = parent.children[segment]
            if child.handler is None and not child.children:
                del parent.children[segment]
            else:
                break
        return True

    def resolve(self, topic: TopicLike) -> Optional[Handler]:
        """The handler the router would dispatch ``topic`` to, or None."""
        node = self._root
        found = node.handler
        for segment in as_topic(topic).segments:
            node = node.children.get(segment)
            if node is None:
                break
            if node.handler is not None:
                found = node.handler
        return found

    def dispatch(self, topic: Topic, sender: Any, kind: str, body: Dict[str, Any]) -> bool:
        """Route one message; returns False when no prefix matched."""
        node = self._root
        found = node.handler
        children = node.children
        for segment in topic.segments:
            node = children.get(segment)
            if node is None:
                break
            if node.handler is not None:
                found = node.handler
            children = node.children
        if found is None:
            return False
        found(topic, sender, kind, body)
        return True


class RoutedProcess(Process):
    """A simulated process whose messages are dispatched through a Router."""

    def __init__(self, replica_id):
        super().__init__(replica_id)
        self.router = Router()
        #: Messages no registered prefix claimed (observability).
        self.unrouted_messages = 0

    def on_message(self, message) -> None:
        probe = self.probe
        if probe is not None:
            # Attribute dispatch wall time to the message's topic-prefix
            # bucket (``dispatch:sbc:rbc`` etc.), a child of the kernel's
            # ``sim.kernel`` section.
            probe.enter("dispatch:" + protocol_group(message.topic))
        try:
            if not self.router.dispatch(
                message.topic, message.sender, message.kind, message.body
            ):
                self._note_unrouted(message)
        finally:
            if probe is not None:
                probe.exit()

    def _note_unrouted(self, message) -> None:
        self.unrouted_messages += 1
        # Cold path: unrouted traffic is a routing-table bug or late
        # cross-epoch chatter — worth a debug line either way.
        self.log.debug("unrouted message: %s", message.describe())
        self.on_unrouted(message)

    def on_unrouted(self, message) -> None:
        """Hook for subclasses that create handlers lazily."""
