"""Streaming time-series sampler with bounded ring buffers.

The sampler snapshots registered series at a configurable *simulated-time*
cadence: the simulator's event loop checks ``now >= sampler.next_tick`` (one
attribute load and a float compare per event when obs is enabled, nothing
when disabled) and calls :meth:`StreamingSampler.tick`.  Each tick records
one point per series into a bounded ring buffer:

* ``events_per_sec`` — host-side event rate since the previous tick
  (wall-clock delta; observational, never fed back into the simulation);
* ``msgs_per_sec:<group>`` — per-protocol-group message rate in *simulated*
  seconds, from counters bumped by ``NetworkSimulator.submit[_broadcast]``;
* registered pull gauges (mempool depth / pending bytes, pending events);
* sliding p50/p99 of observed latency series (time-to-commit), windowed so
  the quantiles track the run's current behaviour.

Ring buffers cap memory for arbitrarily long runs; when a ring wraps, the
oldest points fall off and ``snapshot()`` reports how many were dropped so
exports (:func:`repro.obs.export.series_rows`) never silently pretend to be
complete.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter_ns
from typing import Any, Callable, Deque, Dict, Optional, Tuple

#: Default sampling cadence in simulated seconds.
DEFAULT_CADENCE_S = 0.25

#: Default ring-buffer capacity (points per series).
DEFAULT_RING_POINTS = 2048

#: Default sliding-quantile window (latency observations retained).
DEFAULT_QUANTILE_WINDOW = 512


class SeriesRing:
    """Bounded ``(sim_time, value)`` ring with a dropped-point count."""

    __slots__ = ("points", "dropped")

    def __init__(self, capacity: int) -> None:
        self.points: Deque[Tuple[float, float]] = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, sim_time: float, value: float) -> None:
        if len(self.points) == self.points.maxlen:
            self.dropped += 1
        self.points.append((sim_time, value))


class SlidingQuantile:
    """Sliding window over the most recent observations of one series."""

    __slots__ = ("window",)

    def __init__(self, window: int) -> None:
        self.window: Deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        self.window.append(value)

    def current(self) -> Dict[str, float]:
        from repro.analysis.metrics import percentiles

        values = list(self.window)
        return percentiles(values, (50.0, 99.0)) if values else {}


class StreamingSampler:
    """Samples registered series into ring buffers at a sim-time cadence."""

    def __init__(
        self,
        cadence_s: float = DEFAULT_CADENCE_S,
        ring_points: int = DEFAULT_RING_POINTS,
        quantile_window: int = DEFAULT_QUANTILE_WINDOW,
        publisher: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if cadence_s <= 0:
            raise ValueError(f"sampler cadence must be > 0, got {cadence_s}")
        self.cadence_s = cadence_s
        self.ring_points = ring_points
        self.quantile_window = quantile_window
        self.publisher = publisher
        #: Next simulated time a tick fires; the run loop compares against
        #: this on every event, so it lives as a plain attribute.
        self.next_tick = 0.0
        self.max_time: Optional[float] = None
        self._rings: Dict[str, SeriesRing] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}
        self._message_counts: Dict[str, int] = {}
        self._quantiles: Dict[str, SlidingQuantile] = {}
        self._last_wall_ns: Optional[int] = None
        self._last_sim: Optional[float] = None
        self._last_events: int = 0
        self._last_message_counts: Dict[str, int] = {}
        self._events_processed = 0
        self._events_per_sec = 0.0
        self._started_wall_ns = perf_counter_ns()
        self.ticks = 0

    # -- registration / feeds (instrumented code calls these) ------------------

    def attach(self, simulator: Any) -> None:
        """Adopt a simulator's horizon and pending-events gauge.

        Called by ``NetworkSimulator.__init__`` when obs is active.  Cells
        that build several simulators (churn rounds) re-attach; the horizon
        and gauge simply track the most recent one.
        """
        max_time = getattr(simulator.config, "max_time", None)
        if max_time:
            self.max_time = float(max_time)
        self._gauges["net.pending_events"] = simulator.pending_events

    def register_gauge(self, name: str, pull: Callable[[], float]) -> None:
        """Register a pull gauge sampled once per tick."""
        self._gauges[name] = pull

    def count_message(self, group: str, amount: int = 1) -> None:
        counts = self._message_counts
        if group in counts:
            counts[group] += amount
        else:
            counts[group] = amount

    def observe(self, name: str, value: float) -> None:
        """Feed one latency observation (e.g. time-to-commit) into a series."""
        quantile = self._quantiles.get(name)
        if quantile is None:
            quantile = self._quantiles[name] = SlidingQuantile(self.quantile_window)
        quantile.observe(value)

    # -- the tick --------------------------------------------------------------

    def tick(self, now: float, events_processed: int) -> None:
        """Record one point per series; called from the simulator run loop."""
        wall_ns = perf_counter_ns()
        self.next_tick = now + self.cadence_s
        self.ticks += 1
        self._events_processed = events_processed
        if self._last_wall_ns is None:
            # First tick establishes the rate baseline without emitting.
            self._last_wall_ns = wall_ns
            self._last_sim = now
            self._last_events = events_processed
            self._last_message_counts = dict(self._message_counts)
            return
        wall_delta_s = max((wall_ns - self._last_wall_ns) / 1e9, 1e-9)
        sim_delta_s = max(now - (self._last_sim or 0.0), 1e-9)
        rate = (events_processed - self._last_events) / wall_delta_s
        self._events_per_sec = rate
        self._record("events_per_sec", now, rate)
        for group, count in self._message_counts.items():
            delta = count - self._last_message_counts.get(group, 0)
            self._record(f"msgs_per_sec:{group}", now, delta / sim_delta_s)
        for name, pull in self._gauges.items():
            self._record(name, now, float(pull()))
        for name, quantile in self._quantiles.items():
            for label, value in quantile.current().items():
                self._record(f"{name}.{label}", now, value)
        self._last_wall_ns = wall_ns
        self._last_sim = now
        self._last_events = events_processed
        self._last_message_counts = dict(self._message_counts)
        publisher = self.publisher
        if publisher is not None:
            publisher(
                {
                    "kind": "tick",
                    "sim_time": now,
                    "max_time": self.max_time,
                    "events": events_processed,
                    "events_per_sec": rate,
                }
            )

    def _record(self, name: str, sim_time: float, value: float) -> None:
        ring = self._rings.get(name)
        if ring is None:
            ring = self._rings[name] = SeriesRing(self.ring_points)
        ring.append(sim_time, value)

    # -- live reads (obs frames / dashboards) ----------------------------------

    @property
    def events_per_sec(self) -> float:
        """Host event rate measured at the most recent tick (0 before it)."""
        return self._events_per_sec

    def quantile_current(self, name: str) -> Dict[str, float]:
        """Sliding-window p50/p99 of one observed series (empty if unseen)."""
        quantile = self._quantiles.get(name)
        return quantile.current() if quantile is not None else {}

    # -- snapshot / export -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict form: series points and whole-run totals."""
        wall_s = (perf_counter_ns() - self._started_wall_ns) / 1e9
        totals: Dict[str, Any] = {
            "events_processed": self._events_processed,
            "wall_time_s": wall_s,
            "sim_time_s": self._last_sim if self._last_sim is not None else 0.0,
            "events_per_sec": (
                self._events_processed / wall_s if wall_s > 0 else 0.0
            ),
            "ticks": self.ticks,
        }
        return {
            "cadence_s": self.cadence_s,
            "series": {
                name: {
                    "points": [[t, v] for t, v in ring.points],
                    "dropped": ring.dropped,
                }
                for name, ring in sorted(self._rings.items())
            },
            "message_totals": dict(sorted(self._message_counts.items())),
            "totals": totals,
        }
