"""Structured, interned protocol topics.

Every message envelope names the protocol instance that should consume it.
Historically that name was an ad-hoc string (``"sbc.e0:3:rbc:5"``) built with
f-strings at emission time and taken apart with ``startswith``/regex chains at
delivery time — on the hottest path of every experiment.  A :class:`Topic`
replaces the string with a tuple of path segments::

    ("sbc", 0, 3, "rbc", 5)     # epoch 0, instance 3, RBC of slot 5
    ("asmr", "confirm", 2)      # confirmation of instance 2
    ("excl", 1, "bin", 4)       # exclusion consensus of epoch 1, slot 4

Topics are **interned**: building the same segment tuple twice returns the
same object, so hot-path dictionary lookups hash a cached value and routing
never re-parses anything.  The canonical string form (segments joined with
``":"``) is kept only for human-facing output and for signed vote contexts,
and is computed lazily once per unique topic.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

#: A single path segment: protocol layer names are strings, epochs/instances/
#: slots are ints.
Segment = Union[str, int]

#: Anything accepted where a topic is expected.
TopicLike = Union["Topic", str, Tuple[Segment, ...]]

_INTERNED: Dict[Tuple[Segment, ...], "Topic"] = {}
#: Canonical text -> interned topic, filled by :meth:`Topic.from_wire`.
_BY_TEXT: Dict[str, "Topic"] = {}


class Topic:
    """An interned, immutable protocol path.

    Use :func:`topic` (or :meth:`Topic.of`) to construct; direct instantiation
    bypasses interning and is reserved for the intern table itself and for
    :meth:`from_wire`.
    """

    __slots__ = ("segments", "_canonical", "_hash", "_group")

    def __init__(self, segments: Tuple[Segment, ...]):
        self.segments = segments
        self._canonical: Optional[str] = None
        self._hash = hash(segments)
        #: Telemetry cache: the low-cardinality protocol group of this topic,
        #: filled in by :func:`repro.obs.metrics.protocol_group` on first use.
        self._group: Optional[str] = None

    # -- construction --------------------------------------------------------

    @staticmethod
    def of(*segments: Segment) -> "Topic":
        """Return the interned topic for ``segments``."""
        existing = _INTERNED.get(segments)
        if existing is not None:
            return existing
        created = Topic(segments)
        _INTERNED[segments] = created
        return created

    @staticmethod
    def parse(text: str) -> "Topic":
        """Parse a canonical ``":"``-joined string into an interned topic.

        Decimal segments become ints so ``Topic.parse(str(t)) is t`` holds for
        every topic built from strings and non-negative ints.
        """
        return Topic.of(
            *(int(part) if part.isdigit() else part for part in text.split(":"))
        )

    @staticmethod
    def from_wire(text: str) -> "Topic":
        """:meth:`parse` for a topic a peer sent: the interned topic when one
        exists, a private one otherwise, so a peer inventing topics grows no
        table here.  Routing reads segments, so both dispatch alike.

        An interned topic is found by its text in one probe once it has been
        parsed here.  Only the text a topic prints as is indexed, and only when
        it parses back to that topic — ``("sbc", "0")`` prints as ``sbc:0``,
        which parses to ``("sbc", 0)`` — so the index returns exactly what the
        parse would and holds no more entries than the intern table."""
        try:
            return _BY_TEXT[text]
        except KeyError:
            pass
        segments = tuple(
            int(part) if part.isdigit() else part for part in text.split(":")
        )
        existing = _INTERNED.get(segments)
        if existing is None:
            return Topic(segments)
        if existing.canonical == text:
            _BY_TEXT[text] = existing
        return existing

    def child(self, *suffix: Segment) -> "Topic":
        """The interned topic extending this one with ``suffix`` segments."""
        return Topic.of(*self.segments, *suffix)

    # -- inspection ----------------------------------------------------------

    @property
    def canonical(self) -> str:
        """Canonical string form (lazily computed, cached)."""
        text = self._canonical
        if text is None:
            text = ":".join(str(segment) for segment in self.segments)
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
        # Re-intern on unpickle so identity-based caches stay coherent.
        return (Topic.of, tuple(self.segments))


def topic(*segments: Segment) -> Topic:
    """Shorthand for :meth:`Topic.of`."""
    return Topic.of(*segments)


def as_topic(value: TopicLike) -> Topic:
    """Normalise a topic-like value (Topic, tuple of segments, or string)."""
    if type(value) is Topic:
        return value
    if isinstance(value, str):
        return Topic.parse(value)
    if isinstance(value, tuple):
        return Topic.of(*value)
    raise TypeError(f"cannot interpret {value!r} as a topic")
