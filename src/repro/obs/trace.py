"""Causal tracing over the transports' Topic/Router envelopes (the ``trace``
back-end).

Answers "what caused what, and what happened before the crash": a
:class:`TraceRuntime` bundles the span/event :class:`Tracer` with the flight
recorder, and rides in the ``trace`` slot of a
:class:`~repro.obs.core.Probe`.  The invariant monitors are not part of it:
each deployment owns its own (:mod:`repro.obs.monitors`), and a traced run
only attaches its recorder to them for the dump.  Causality flows through three
mechanisms:

* every :class:`~repro.network.message.Message` carries an optional
  ``trace_ctx`` (trace id + parent span id), stamped from the *active* context
  at submission time by the simulator's ``submit``/``submit_broadcast``;
* every delivery of a context-carrying message opens a child span named after
  the topic's protocol group and message kind, activates it around the
  process's ``on_message`` dispatch (so anything *sent while handling* chains
  off the delivery), and closes it at the same simulated instant — a broadcast
  therefore yields one child span per recipient off the shared envelope;
* timers capture the context active at ``set_timer`` time and restore it
  around the callback, so delayed continuations (zero-phase grace votes,
  retransmissions) stay on their causal chain.

Tracing is strictly observational: it consumes no randomness and schedules no
events, so enabling it cannot perturb a seeded run's event order — the fixed
fig4 golden outcomes hold with tracing on or off.

Protocol components additionally emit structured point *events*
(``rbc.deliver``, ``bin.decide``, ``zlb.commit``, ...) carrying the consensus
instance: instant marks on the Chrome trace's lanes.  Where the time to
commit went is not read off them but off the metrics registry's
``zlb.phase.*_s`` histograms.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

# NOTE: like repro.obs.metrics, this module is imported by the network
# simulator and must not import repro.network (or anything that imports it)
# at module level; topic helpers are imported lazily where needed.


class TraceContext:
    """An immutable (trace id, span id) pair riding on messages and timers."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id

    def fmt(self) -> str:
        """Compact ``tN:sM`` rendering used in logs and recorder dumps."""
        return f"t{self.trace_id}:s{self.span_id}"

    def __repr__(self) -> str:
        return f"TraceContext({self.fmt()})"


class Span:
    """One timed unit of work attributed to a replica, in simulated seconds."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "replica",
        "start",
        "end",
        "attrs",
        "ctx",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        replica: Any,
        start: float,
        attrs: Optional[Dict[str, Any]],
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.replica = replica
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        #: The context children inherit; built once so repeated message
        #: stamping off the same span shares one object.
        self.ctx = TraceContext(trace_id, span_id)

    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "replica": self.replica,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    def __repr__(self) -> str:
        return (
            f"Span({self.name} {self.ctx.fmt()} r={self.replica} "
            f"[{self.start:.6f}, {self.end}])"
        )


class Tracer:
    """Collects spans and structured events for one traced run.

    ``id_base`` namespaces the id counters: every process of a distributed
    run picks a disjoint base (the cluster worker uses
    :func:`replica_id_base`), so span and trace ids stay globally unique and
    per-worker span sets merge into one tree without renumbering.  The
    default base 0 keeps single-process ids small and stable.
    """

    def __init__(self, id_base: int = 0) -> None:
        self.spans: List[Span] = []
        #: Structured point events: dicts with name/replica/t/trace/span plus
        #: free-form attrs.
        self.events: List[Dict[str, Any]] = []
        self.id_base = id_base
        self._span_ids = itertools.count(id_base + 1)
        self._trace_ids = itertools.count(id_base + 1)
        self._active: Optional[TraceContext] = None

    # -- context ----------------------------------------------------------------

    @property
    def current_ctx(self) -> Optional[TraceContext]:
        """The context new messages/timers/spans inherit, or ``None``."""
        return self._active

    def activate(self, ctx: Optional[TraceContext]) -> Optional[TraceContext]:
        """Install ``ctx`` as the active context; returns the previous one.

        Callers must restore the returned value (see :meth:`restore`) in a
        ``finally`` block — dispatch nests, and an unbalanced activate would
        leak one handler's causality into its siblings.
        """
        previous = self._active
        self._active = ctx
        return previous

    def restore(self, previous: Optional[TraceContext]) -> None:
        self._active = previous

    # -- spans ------------------------------------------------------------------

    def start_trace(
        self, name: str, replica: Any, at: float, **attrs: Any
    ) -> Span:
        """Open a root span beginning a fresh trace (e.g. one ASMR instance)."""
        span = Span(
            trace_id=next(self._trace_ids),
            span_id=next(self._span_ids),
            parent_id=None,
            name=name,
            replica=replica,
            start=at,
            attrs=attrs or None,
        )
        self.spans.append(span)
        return span

    def start_span(
        self,
        name: str,
        replica: Any,
        at: float,
        parent: Optional[TraceContext] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span under ``parent`` (default: the active context).

        With no parent anywhere the span becomes the root of a new trace.
        """
        parent_ctx = parent if parent is not None else self._active
        if parent_ctx is None:
            return self.start_trace(name, replica, at, **attrs)
        span = Span(
            trace_id=parent_ctx.trace_id,
            span_id=next(self._span_ids),
            parent_id=parent_ctx.span_id,
            name=name,
            replica=replica,
            start=at,
            attrs=attrs or None,
        )
        self.spans.append(span)
        return span

    def finish(self, span: Optional[Span], at: float) -> None:
        """Close ``span`` (``None`` — a span never opened — is ignored)."""
        if span is not None:
            span.end = at

    def span_records(self) -> List[Dict[str, Any]]:
        """Every span as a plain dict — what the exporters and the wire take."""
        return [span.to_dict() for span in self.spans]

    # -- structured events -------------------------------------------------------

    def event(self, name: str, replica: Any, at: float, **attrs: Any) -> None:
        """Record a point event attributed to the active context (if any)."""
        ctx = self._active
        self.events.append(
            {
                "name": name,
                "replica": replica,
                "t": at,
                "trace": ctx.trace_id if ctx is not None else None,
                "span": ctx.span_id if ctx is not None else None,
                "attrs": attrs,
            }
        )

    # -- summaries ----------------------------------------------------------------

    def trace_count(self) -> int:
        return len({span.trace_id for span in self.spans})


def topic_trace_attrs(topic: Any) -> Dict[str, Any]:
    """Low-cardinality attributes identifying a sub-protocol topic.

    Extracts the protocol head, the consensus ``instance`` and the proposer
    ``slot`` from topics shaped like ``("sbc", epoch, instance, "rbc", slot)``
    or ``("excl", epoch, "bin", slot)``; components cache the result once at
    construction so per-event cost is a dict copy at most.
    """
    segments = getattr(topic, "segments", None)
    if segments is None:
        from repro.network.topic import as_topic

        segments = as_topic(topic).segments
    attrs: Dict[str, Any] = {"head": str(segments[0]).partition(".")[0]}
    for layer in ("rbc", "bin"):
        if layer in segments[1:]:
            index = segments.index(layer)
            if index + 1 < len(segments):
                attrs["slot"] = segments[index + 1]
            if index >= 2:
                attrs["instance"] = segments[index - 1]
            return attrs
    if attrs["head"] == "sbc" and len(segments) >= 3:
        attrs["instance"] = segments[2]
    return attrs


class TraceRuntime:
    """Bundles the tracer with the flight recorder.

    The transports drive it through the hooks of the
    :class:`~repro.obs.core.Probe` that carries it.
    """

    __slots__ = ("tracer", "recorder")

    def __init__(
        self, tracer: Optional[Tracer] = None, recorder: Optional[Any] = None
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.recorder = recorder

    @classmethod
    def enabled(
        cls,
        recorder_capacity: int = 512,
        dump_path: Optional[Any] = None,
        id_base: int = 0,
    ) -> "TraceRuntime":
        """A fully wired runtime: tracer + flight recorder.

        ``dump_path`` is where the deployment's invariant monitors dump the
        recorder on the first violation.  ``id_base`` namespaces span/trace
        ids (see :class:`Tracer`); cluster workers pass
        :func:`replica_id_base` so per-process traces merge.
        """
        from repro.obs.recorder import FlightRecorder

        return cls(
            tracer=Tracer(id_base=id_base),
            recorder=FlightRecorder(capacity=recorder_capacity, dump_path=dump_path),
        )

    # -- summaries -------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """JSON-serialisable digest persisted by the scenario runner."""
        tracer = self.tracer
        summary: Dict[str, Any] = {
            "traces": tracer.trace_count(),
            "spans": len(tracer.spans),
            "events": len(tracer.events),
        }
        if self.recorder is not None:
            summary["recorder_events"] = len(self.recorder)
        return summary


#: Id-namespace width per cluster worker: 2**40 spans/traces per process is
#: far beyond any run while keeping merged ids well inside float-exact range.
_ID_BASE_STRIDE = 1 << 40


def replica_id_base(replica_id: int) -> int:
    """The disjoint :class:`Tracer` id namespace of one cluster worker.

    Offset by one stride so worker 0 does not collide with the default
    ``id_base=0`` namespace of a launcher-side (or simulator) tracer.
    """
    return (replica_id + 1) * _ID_BASE_STRIDE
