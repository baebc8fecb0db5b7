"""Metric primitives and the per-run registry (the ``metrics`` back-end).

Answers "how many, how long, and when": instrumented code reaches the
registry through the ``count`` / ``observe`` / ``gauge`` verbs of its
:class:`~repro.obs.core.Probe`, and the probe's tick calls
:meth:`TelemetryRegistry.sample` to append a point to a metric's bounded
time series whenever its value changed since the series' last point.

Primitives:

* :class:`Counter` — monotonically increasing count (messages, bytes, commits);
* :class:`Gauge` — last-written value plus its observed min/max (queue depth,
  mempool occupancy; the ``zlb.recovery.*_s`` gauges' ``min`` is the first
  time a recovery step happened on any replica);
* :class:`Histogram` — sample series summarised as count/mean/std/ci95 and
  p50/p95/p99 (per-phase latencies, round counts, certificate sizes), using
  the shared :func:`repro.analysis.metrics.percentiles` helper.

Metrics are identified by name plus optional low-cardinality labels, created
lazily on first touch and snapshotted into a plain JSON-serialisable dict that
the scenario :class:`~repro.scenarios.store.ResultStore` persists next to each
result row.  The snapshot's ``series`` are the sampled points: a counter's
or gauge's value at a tick, and a histogram's p50/p99 over what it observed
since the previous tick (``name.p50``, ``name.p99``).  A tick that finds the
value of the series' last point adds none, so a flat stretch is one point
(a step function: each point holds until the next).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

# NOTE: this module must not import other repro packages at module level —
# the network simulator imports it (through repro.obs.core), so a top-level
# import of e.g. repro.analysis would close an import cycle.  Summaries import
# repro.analysis.metrics lazily inside Histogram.snapshot instead.

#: Points one series keeps; older points fall off and are counted as dropped
#: (an unchanged value appends nothing, so it drops nothing either).
SERIES_POINTS = 2048

#: Labels are rendered into metric keys as ``name{k=v,k2=v2}``.
MetricKey = str


def metric_key(name: str, labels: Dict[str, Any]) -> MetricKey:
    """Canonical string key of a metric: ``name`` plus sorted labels."""
    if not labels:
        return name
    rendered = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{rendered}}}"


def split_metric_key(key: MetricKey) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`metric_key` (labels come back as strings)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if "=" in pair:
            label, _, value = pair.partition("=")
            labels[label] = value
    return name, labels


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-written value, plus the minimum and maximum ever written."""

    __slots__ = ("value", "min", "max", "writes")

    def __init__(self) -> None:
        self.value: Optional[float] = None
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.writes = 0

    def set(self, value: float) -> None:
        self.value = value
        self.writes += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "writes": self.writes,
        }


#: Default reservoir capacity.  At 4096 retained samples the standard error of
#: an estimated quantile ``q`` is ``sqrt(q(1-q)/4096)`` ranks — about ±0.8
#: percentile ranks at p50 and ±0.16 at p99 — well inside the run-to-run noise
#: of the latency series the registry records.
HISTOGRAM_RESERVOIR_SIZE = 4096


class Histogram:
    """A series of samples summarised as mean/ci95 and p50/p95/p99.

    Memory is bounded: up to ``capacity`` raw samples are retained exactly;
    beyond that the histogram switches to uniform reservoir sampling
    (Vitter's Algorithm R) so arbitrarily long open-loop runs hold a fixed
    ``capacity``-sized sample.  ``count``, ``mean``, ``min`` and ``max`` stay
    exact regardless (tracked incrementally); ``std``/``ci95`` and the
    p50/p95/p99 quantiles are exact until the reservoir saturates and
    unbiased estimates afterwards (see :data:`HISTOGRAM_RESERVOIR_SIZE` for
    the error bound).  The reservoir's RNG is seeded per-instance, never the
    global ``random`` state, so instrumented runs stay bit-reproducible.
    ``recent`` holds the newest ``capacity`` observations since the last
    :meth:`TelemetryRegistry.sample`, which empties it.
    """

    __slots__ = (
        "samples", "recent", "capacity", "_observed", "_sum", "_min", "_max", "_rng",
    )

    def __init__(self, capacity: int = HISTOGRAM_RESERVOIR_SIZE) -> None:
        if capacity < 1:
            raise ValueError(f"histogram capacity must be >= 1, got {capacity}")
        self.samples: List[float] = []
        self.recent: Deque[float] = deque(maxlen=capacity)
        self.capacity = capacity
        self._observed = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._rng: Optional[Any] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.recent.append(value)
        self._observed += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if len(self.samples) < self.capacity:
            self.samples.append(value)
            return
        if self._rng is None:
            import random

            self._rng = random.Random(self.capacity)
        slot = self._rng.randrange(self._observed)
        if slot < self.capacity:
            self.samples[slot] = value

    @property
    def count(self) -> int:
        """Total number of observations (not the retained-sample count)."""
        return self._observed

    def snapshot(self) -> Dict[str, float]:
        from repro.analysis.metrics import summarize_latencies

        summary = summarize_latencies(self.samples)
        # count/mean/min/max come from the exact incremental trackers; only
        # the dispersion and quantile fields are reservoir estimates.
        summary["count"] = self._observed
        if self._observed:
            summary["mean"] = self._sum / self._observed
        summary["min"] = self._min if self._min is not None else 0.0
        summary["max"] = self._max if self._max is not None else 0.0
        return summary


class TelemetryRegistry:
    """All metrics of one run, created lazily and snapshotted as plain JSON."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}
        self._series: Dict[str, Deque[Tuple[float, float]]] = {}
        self._dropped: Dict[str, int] = {}

    # -- metric accessors ------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = metric_key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = metric_key(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = metric_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram()
        return histogram

    # -- write verbs (what a Probe binds) ---------------------------------------

    def count(self, name: str, amount: float = 1, **labels: Any) -> None:
        self.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.histogram(name, **labels).observe(value)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self.gauge(name, **labels).set(value)

    # -- time series (the probe's tick) -----------------------------------------

    def sample(self, now: float) -> None:
        """Append a point at time ``now`` to every counter, gauge and
        histogram series whose value changed since its last point.

        A histogram's points are the p50 and p99 of what it observed since
        the previous call; one that observed nothing adds no point.
        """
        from repro.analysis.metrics import percentiles

        record = self._record
        for key, counter in self._counters.items():
            record(key, now, counter.value)
        for key, gauge in self._gauges.items():
            if gauge.value is not None:
                record(key, now, gauge.value)
        for key, histogram in self._histograms.items():
            recent = histogram.recent
            if recent:
                name, brace, labels = key.partition("{")
                for quantile, value in percentiles(recent, (50.0, 99.0)).items():
                    record(f"{name}.{quantile}{brace}{labels}", now, value)
                recent.clear()

    def _record(self, name: str, now: float, value: float) -> None:
        ring = self._series.get(name)
        if ring is None:
            ring = self._series[name] = deque(maxlen=SERIES_POINTS)
        elif ring[-1][1] == value:
            return
        elif len(ring) == SERIES_POINTS:
            self._dropped[name] = self._dropped.get(name, 0) + 1
        ring.append((now, value))

    # -- snapshot --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict form of every metric (JSON-serialisable, sorted keys)."""
        return {
            "counters": {
                key: self._counters[key].snapshot() for key in sorted(self._counters)
            },
            "gauges": {
                key: self._gauges[key].snapshot() for key in sorted(self._gauges)
            },
            "histograms": {
                key: self._histograms[key].snapshot()
                for key in sorted(self._histograms)
            },
            "series": {
                name: {
                    "points": [[t, v] for t, v in self._series[name]],
                    "dropped": self._dropped.get(name, 0),
                }
                for name in sorted(self._series)
            },
        }


def protocol_group(protocol: Any) -> str:
    """Low-cardinality protocol label for per-message counters.

    Protocol topics embed epochs, instances and slots
    (``("sbc", 0, 3, "rbc", 5)``, ``("asmr", "confirm", 2)``,
    ``("excl", 1, "bin", 4)``); grouping strips all of that so counters
    aggregate by protocol layer — ``sbc:rbc``, ``sbc:bin``, ``excl:rbc``,
    ``asmr:confirm`` — instead of exploding one counter per instance.

    Accepts a :class:`~repro.network.topic.Topic` (the hot path — the group
    is computed once per interned topic and cached on it) or a legacy
    protocol string.
    """
    from repro.network.topic import Topic, as_topic

    if isinstance(protocol, Topic):
        group = protocol._group
        if group is None:
            group = _group_of_segments(protocol.segments)
            protocol._group = group
        return group
    return _group_of_segments(as_topic(protocol).segments)


def _group_of_segments(segments: Tuple[Any, ...]) -> str:
    head = str(segments[0])
    # Legacy "sbc.e3" heads: the epoch is run-specific, not a layer.
    head = head.partition(".")[0]
    rest = segments[1:]
    if "rbc" in rest:
        return f"{head}:rbc"
    if "bin" in rest:
        return f"{head}:bin"
    if head == "asmr" and rest:
        return f"asmr:{rest[0]}"
    return head
