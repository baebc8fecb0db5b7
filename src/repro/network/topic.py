"""Structured, interned protocol topics.

Every message envelope names the protocol instance that should consume it.
Historically that name was an ad-hoc string (``"sbc.e0:3:rbc:5"``) built with
f-strings at emission time and taken apart with ``startswith``/regex chains at
delivery time — on the hottest path of every experiment.  A :class:`Topic`
replaces the string with a tuple of path segments::

    ("sbc", 0, 3, "rbc", 5)     # epoch 0, instance 3, RBC of slot 5
    ("asmr", "confirm", 2)      # confirmation of instance 2
    ("excl", 1, "bin", 4)       # exclusion consensus of epoch 1, slot 4

Topics are **interned per deployment**: its :class:`TopicTable` (the key
registry's ``topics``) returns the same object for the same segment tuple, so
hot-path dictionary lookups hash a cached value and routing never re-parses
anything.  Hosts build their root topics there and :meth:`Topic.child`
interns into its parent's table; :meth:`Topic.of` builds a *private* topic,
which routes, compares and hashes like any other.  The canonical string form
(segments joined with ``":"``) is kept for human-facing output and signed
vote contexts, computed lazily once per topic object.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

#: A single path segment: protocol layer names are strings, epochs/instances/
#: slots are ints.
Segment = Union[str, int]

#: Anything accepted where a topic is expected.
TopicLike = Union["Topic", str, Tuple[Segment, ...]]


class Topic:
    """An immutable protocol path, interned in a :class:`TopicTable` or private."""

    __slots__ = ("segments", "_table", "_canonical", "_hash", "_group")

    def __init__(self, segments: Tuple[Segment, ...], table: Optional["TopicTable"] = None):
        self.segments = segments
        #: The table this topic is interned in; None for a private topic.
        self._table = table
        self._canonical: Optional[str] = None
        self._hash = hash(segments)
        #: Telemetry cache: the low-cardinality protocol group of this topic,
        #: filled in by :func:`repro.obs.metrics.protocol_group` on first use.
        self._group: Optional[str] = None

    # -- construction --------------------------------------------------------

    @staticmethod
    def of(*segments: Segment) -> "Topic":
        """A private topic for ``segments``."""
        return Topic(segments)

    @staticmethod
    def parse(text: str) -> "Topic":
        """Parse a canonical ``":"``-joined string into a private topic.

        Decimal segments become ints so ``Topic.parse(str(t)) == t`` holds for
        every topic built from strings and non-negative ints.  (A list
        comprehension: a generator would cost a call per segment.)
        """
        return Topic(tuple([int(part) if part.isdigit() else part for part in text.split(":")]))

    def child(self, *suffix: Segment) -> "Topic":
        """The topic extending this one with ``suffix`` segments, interned in
        this topic's table (private when this one is)."""
        table = self._table
        if table is None:
            return Topic(self.segments + suffix)
        return table.of(*self.segments, *suffix)

    # -- inspection ----------------------------------------------------------

    @property
    def canonical(self) -> str:
        """Canonical string form (lazily computed, cached)."""
        text = self._canonical
        if text is None:
            text = ":".join(map(str, self.segments))
            self._canonical = text
        return text

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __getitem__(self, index):
        return self.segments[index]

    # -- identity ------------------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Topic):
            return self.segments == other.segments
        return NotImplemented

    def __str__(self) -> str:
        return self.canonical

    def __repr__(self) -> str:
        return f"Topic({self.canonical!r})"

    def __reduce__(self):
        # A table is one deployment's: an unpickled topic is private.
        return (Topic, (self.segments,))


class TopicTable:
    """One deployment's interned topics: they die with it."""

    __slots__ = ("_interned", "_by_text")

    def __init__(self) -> None:
        self._interned: Dict[Tuple[Segment, ...], Topic] = {}
        #: Canonical text -> interned topic, filled by :meth:`from_wire`.
        self._by_text: Dict[str, Topic] = {}

    def __len__(self) -> int:
        return len(self._interned)

    def of(self, *segments: Segment) -> Topic:
        """Return the interned topic for ``segments``."""
        existing = self._interned.get(segments)
        if existing is None:
            existing = self._interned[segments] = Topic(segments, self)
        return existing

    def from_wire(self, text: str) -> Topic:
        """The topic a peer sent: the interned one when it exists, a private
        one otherwise, so a peer inventing topics grows no table.

        Once parsed here, an interned topic is found by its text in one
        probe.  Only the text a topic prints as is indexed, and only when it
        parses back to that topic (``("sbc", "0")`` prints as ``sbc:0``,
        which parses to ``("sbc", 0)``), so the index returns what the parse
        would."""
        try:
            return self._by_text[text]
        except KeyError:
            pass
        parsed = Topic.parse(text)
        existing = self._interned.get(parsed.segments)
        if existing is None:
            return parsed
        if existing.canonical == text:
            self._by_text[text] = existing
        return existing


def topic(*segments: Segment) -> Topic:
    """Shorthand for :meth:`Topic.of`: a private topic."""
    return Topic(segments)


def as_topic(value: TopicLike) -> Topic:
    """Normalise a topic-like value (Topic, tuple of segments, or string)."""
    if type(value) is Topic:
        return value
    if isinstance(value, str):
        return Topic.parse(value)
    if isinstance(value, tuple):
        return Topic(value)
    raise TypeError(f"cannot interpret {value!r} as a topic")
