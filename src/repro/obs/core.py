"""The one instrumentation handle (:class:`Probe`) and its activation scope.

**The disabled-mode contract.**  Every instrumented layer — transports,
processes, protocol hosts, the blockchain manager — holds a single ``probe``
attribute that is either ``None`` (the default) or a live :class:`Probe`.  A
call site reads it once, guards once, and then speaks verbs::

    probe = self.probe
    if probe is not None:
        probe.count("rbc.delivered")
        probe.event("rbc.deliver", replica, now, instance=3)

so an uninstrumented run pays one pointer comparison per site and not a
single Python call: there is no null-object probe and no helper in front of
the guard.  A live probe carries up to two back-ends — ``metrics``
(:class:`~repro.obs.metrics.TelemetryRegistry`) and ``trace``
(:class:`~repro.obs.trace.TraceRuntime`) — and each verb is bound at
construction to its back-end's method or, when that back-end is absent, to
one shared no-op.  The few sites that need a back-end itself (the tracer to
install a context, the flight recorder) read the slot under a second check.
The simulator's run loop calls :meth:`Probe.tick` every :data:`TICK_S`
simulated seconds: it samples the metrics into their time series and hands
a watcher's publisher one progress event.
The invariant monitors are not a back-end: every deployment owns one
:class:`~repro.obs.monitors.MonitorSet` and its replicas call it with or
without a probe, so a bare run is checked as fully as an instrumented one.

Everything here is observational: no back-end consumes randomness or
schedules anything, so fixed-seed runs are byte-identical at every
instrumentation level.

:func:`activate` installs a probe for a block of code; constructors that
build a stack (``NetworkSimulator``, ``ZLBSystem.create``) default their
``probe`` argument to :func:`current`.  This is the only activation scope in
the code base.

This module is imported by the network simulator, so it imports nothing
above :mod:`repro.common.context` and its obs siblings.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, Optional

from repro.common.context import ActivationScope
from repro.obs.metrics import TelemetryRegistry, protocol_group
from repro.obs.trace import TraceContext, TraceRuntime

#: What ``ScenarioSpec.instrument`` and ``--instrument`` accept besides "":
#: metrics only, trace only, both.
LEVELS = ("metrics", "trace", "all")

#: Simulated seconds between two :meth:`Probe.tick` calls.
TICK_S = 0.25


def _noop(*args: Any, **kwargs: Any) -> None:
    """What every verb of an absent back-end is bound to."""


class Probe:
    """One run's instrumentation: back-end slots plus the verbs bound to them."""

    __slots__ = (
        "metrics", "trace", "publisher", "_last_wall", "_last_events",
        # metrics verbs
        "count", "observe", "gauge",
        # trace verbs
        "event", "start_span", "finish",
    )

    def __init__(
        self,
        metrics: Optional[TelemetryRegistry] = None,
        trace: Optional[TraceRuntime] = None,
        publisher: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self.metrics = metrics
        self.trace = trace
        #: A watcher's sink for the progress event of every tick, or None.
        self.publisher = publisher
        self._last_wall = perf_counter()
        self._last_events = 0
        #: ``count(name, amount=1, **labels)``
        self.count = metrics.count if metrics is not None else _noop
        #: ``observe(name, value, **labels)`` — one histogram sample
        self.observe = metrics.observe if metrics is not None else _noop
        #: ``gauge(name, value, **labels)``
        self.gauge = metrics.set_gauge if metrics is not None else _noop
        tracer = trace.tracer if trace is not None else None
        #: ``event(name, replica, at, **attrs)`` — structured point event
        self.event = tracer.event if tracer is not None else _noop
        #: ``start_span(name, replica, at, parent=None, **attrs)`` → span or None
        self.start_span = tracer.start_span if tracer is not None else _noop
        #: ``finish(span, at)``
        self.finish = tracer.finish if tracer is not None else _noop

    @classmethod
    def at_level(
        cls,
        level: str,
        publisher: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> "Probe":
        """The probe of one instrumentation level (see :data:`LEVELS`), with
        a watcher's ``publisher`` if one is given."""
        if level and level not in LEVELS:
            raise ValueError(
                f"unknown instrumentation level {level!r}; known: {', '.join(LEVELS)}"
            )
        return cls(
            metrics=TelemetryRegistry() if level in ("metrics", "all") else None,
            trace=TraceRuntime.enabled() if level in ("trace", "all") else None,
            publisher=publisher,
        )

    def tick(self, now: float, events: int) -> None:
        """Sample the metrics at ``now`` and publish one progress event.

        ``events`` is the simulator's processed-event count; the rate is
        host-side (events per wall-clock second since the previous tick), so
        it is recorded as the ``sim.events_per_sec`` gauge and never fed
        back into the run.
        """
        wall = perf_counter()
        if events < self._last_events:
            # A new simulator (``churn`` builds one per round) counts from 0.
            self._last_events = 0
        rate = (events - self._last_events) / max(wall - self._last_wall, 1e-9)
        self._last_wall = wall
        self._last_events = events
        metrics = self.metrics
        if metrics is not None:
            metrics.set_gauge("sim.events_per_sec", rate)
            metrics.sample(now)
        if self.publisher is not None:
            self.publisher(
                {
                    "kind": "tick",
                    "sim_time": now,
                    "events": events,
                    "events_per_sec": rate,
                }
            )

    # -- transport hooks ---------------------------------------------------------
    #
    # Both transports call these under their one guard; each fans out to the
    # back-ends present.

    def on_send(self, message: Any, now: float, count: int = 1, nbytes: int = 0) -> None:
        """Count a submission to ``count`` recipients (and the ``nbytes`` a
        socket's frames took) by group and kind; stamp its trace context."""
        metrics = self.metrics
        if metrics is not None:
            group = protocol_group(message.topic)
            kind = message.kind
            metrics.count("net.messages_sent", count, protocol=group, kind=kind)
            if nbytes:
                metrics.count("net.bytes_sent", nbytes, protocol=group, kind=kind)
        self.stamp(message)
        trace = self.trace
        if trace is not None and trace.recorder is not None:
            trace.recorder.record_message(now, message.sender, "send", message)

    def stamp(self, message: Any) -> None:
        """Stamp the active trace context on an envelope that carries none.

        ``on_send`` does it for every submission; the socket transport calls
        it earlier, because the context has to be on the envelope before the
        frame is encoded.
        """
        trace = self.trace
        if trace is not None and message.trace_ctx is None:
            message.trace_ctx = trace.tracer.current_ctx

    def on_drop(self, message: Any, now: float, count: int = 1) -> None:
        self.count("net.messages_dropped", count)
        trace = self.trace
        if trace is not None and trace.recorder is not None:
            trace.recorder.record_message(
                now, message.sender, "drop", message, count=count
            )

    def deliver(self, process: Any, message: Any, now: float) -> None:
        """Dispatch a delivery — when traced, inside a child span of the
        message's context that everything sent while handling chains off."""
        self.count("net.messages_delivered")
        trace = self.trace
        if trace is not None and trace.recorder is not None:
            trace.recorder.record_message(now, message.recipient, "deliver", message)
        ctx = message.trace_ctx
        if trace is None or ctx is None:
            process.on_message(message)
            return
        tracer = trace.tracer
        span = tracer.start_span(
            f"{protocol_group(message.topic)}/{message.kind}",
            message.recipient,
            now,
            parent=ctx,
            sender=message.sender,
            topic=message.topic.canonical,
        )
        previous = tracer.activate(span.ctx)
        try:
            process.on_message(message)
        finally:
            tracer.restore(previous)
            tracer.finish(span, now)

    def timer_context(self) -> Optional[TraceContext]:
        """The trace context a timer captures at scheduling time."""
        trace = self.trace
        return trace.tracer.current_ctx if trace is not None else None

    def fire_timer(
        self,
        callback: Callable[[], None],
        ctx: Optional[TraceContext],
        now: float,
        owner: Any,
    ) -> None:
        """Run a timer callback under the trace context captured when it was
        scheduled."""
        trace = self.trace
        if trace is None:
            callback()
            return
        if trace.recorder is not None:
            trace.recorder.record(
                now,
                owner,
                "timer",
                f"timer fired (owner={owner})",
                trace=ctx.fmt() if ctx is not None else None,
            )
        previous = trace.tracer.activate(ctx)
        try:
            callback()
        finally:
            trace.tracer.restore(previous)

    # -- end-of-run artefacts ----------------------------------------------------

    def artefacts(self) -> Dict[str, Dict[str, Any]]:
        """What a result store persists next to the row, by record key:
        ``telemetry`` (metrics snapshot, time series included) and ``trace``
        (summary) — each only when its back-end is present."""
        found: Dict[str, Dict[str, Any]] = {}
        if self.metrics is not None:
            found["telemetry"] = self.metrics.snapshot()
        if self.trace is not None:
            found["trace"] = self.trace.summary()
        return found


# -- the current probe ---------------------------------------------------------

#: The only activation scope in ``src/repro``.
SCOPE = ActivationScope()


def current() -> Optional[Probe]:
    """The active probe installed by :func:`activate`, or ``None``."""
    return SCOPE.value


def activate(probe: Optional[Probe]):
    """Install ``probe`` for the enclosed block; ``activate(None)`` shields it."""
    return SCOPE.activate(probe)
