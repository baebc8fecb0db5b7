"""The flight recorder: bounded per-replica ring buffers of network events.

Every send, delivery, drop and timer firing is appended to the owning
replica's ``collections.deque(maxlen=capacity)``; old entries fall off the
back, so a long run retains only the *recent past* — which is exactly what a
post-mortem needs.  Entries carry a global monotonically increasing sequence
number stamped at record time; because the simulator is single-threaded and
processes events in timestamp order, sorting the union of all buffers by
``(t, seq)`` reconstructs the causal order of everything retained.

The recorder is only ever touched from :class:`~repro.obs.trace.TraceRuntime`
hooks (enabled mode) — the disabled path never sees it — and by the
deployment's invariant monitors, which dump it to its ``dump_path`` on the
first violation.  Dumps are JSONL: a
header record stating how much was recorded, retained, evicted and skipped —
a truncated dump says it is truncated — then one event per line, so they
stream into ``jq``/pandas unchanged; :meth:`render` produces the compact text
block pytest attaches to failing test reports.
"""

from __future__ import annotations

import collections
import itertools
from typing import Any, Deque, Dict, List, Optional

from repro.obs.export import write_jsonl

#: Default per-replica ring capacity; enough to hold several consensus
#: instances' worth of traffic at small n without unbounded growth.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Last-N delivery/timer events per replica, merged in causal order."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, dump_path: Any = None):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        #: Where the invariant monitors dump the ring on the first violation
        #: (None: never dumped by them).
        self.dump_path = dump_path
        self._buffers: Dict[Any, Deque[Dict[str, Any]]] = {}
        self._seq = itertools.count()
        self._recorded = 0

    # -- recording ---------------------------------------------------------------

    def record(
        self,
        at: float,
        replica: Any,
        kind: str,
        detail: str,
        trace: Optional[str] = None,
    ) -> None:
        """Append one event to ``replica``'s ring buffer."""
        buffer = self._buffers.get(replica)
        if buffer is None:
            buffer = self._buffers[replica] = collections.deque(
                maxlen=self.capacity
            )
        buffer.append(
            {
                "seq": next(self._seq),
                "t": at,
                "replica": replica,
                "type": kind,
                "detail": detail,
                "trace": trace,
            }
        )
        self._recorded += 1

    def record_message(
        self, at: float, replica: Any, kind: str, message: Any, count: int = 1
    ) -> None:
        """Record a message event; the self-describing envelope is the detail."""
        detail = message.describe()
        if count > 1:
            detail = f"{detail} (x{count})"
        ctx = message.trace_ctx
        self.record(at, replica, kind, detail, trace=ctx.fmt() if ctx else None)

    # -- reading -----------------------------------------------------------------

    def events_since(self, seq: int) -> List[Dict[str, Any]]:
        """Retained events with sequence number strictly greater than ``seq``.

        The cluster worker ships its ring incrementally: each obs frame
        carries only the events recorded since the previous frame, so a
        long-lived worker never re-sends its whole ring.
        """
        fresh = [
            event
            for buffer in self._buffers.values()
            for event in buffer
            if event["seq"] > seq
        ]
        fresh.sort(key=lambda event: (event["t"], event["seq"]))
        return fresh

    def __len__(self) -> int:
        """Events currently retained (not the total ever recorded)."""
        return sum(len(buffer) for buffer in self._buffers.values())

    @property
    def recorded(self) -> int:
        """Total events ever recorded, including those already evicted."""
        return self._recorded

    @property
    def evicted(self) -> int:
        """Events recorded but already pushed out of their ring."""
        return self._recorded - len(self)

    def events(self) -> List[Dict[str, Any]]:
        """All retained events merged across replicas, in causal order.

        The simulation is single-threaded and timestamp-ordered, so sorting
        by ``(t, seq)`` — sequence number breaking simultaneous-event ties in
        record order — *is* the causal order of the retained suffix.
        """
        return self.events_since(-1)

    # -- dumping -----------------------------------------------------------------

    def dump_jsonl(self, path: Any) -> str:
        """Write the header and the causally-ordered event log; returns the path."""
        events = self.events()
        header = flight_header(self._recorded, len(events), evicted=self.evicted)
        return write_jsonl([header, *events], path)

    def render(self, limit: int = 40) -> str:
        """Human-readable tail of the event log (pytest failure reports)."""
        events = self.events()
        shown = events[-limit:]
        lines = [
            f"flight recorder: {len(events)} retained event(s)"
            f" ({self._recorded} recorded, capacity {self.capacity}/replica)"
        ]
        if len(events) > len(shown):
            lines.append(f"... {len(events) - len(shown)} earlier event(s) elided")
        for event in shown:
            trace = event["trace"]
            # Message details are self-describing (they embed the context);
            # only annotate events whose detail does not carry it already.
            trace = f" [{trace}]" if trace and trace not in event["detail"] else ""
            lines.append(
                f"  t={event['t']:.6f}s r={event['replica']} "
                f"{event['type']:<7} {event['detail']}{trace}"
            )
        return "\n".join(lines)


# -- cross-process merging -----------------------------------------------------


#: How :func:`merge_worker_events` maps a record's time fields onto the
#: cluster clock: a flight event keeps its worker-clock ``t`` and gains
#: ``t_cluster``; a report span (``start``/``end``) or trace event (``t``) is
#: shifted in place.
FLIGHT_CLOCK = {"t": "t_cluster"}
REPORT_CLOCK = {"start": "start", "end": "end", "t": "t"}


def merge_worker_events(
    records_by_worker: Dict[Any, List[Dict[str, Any]]],
    offsets: Optional[Dict[Any, float]] = None,
    clock: Dict[str, str] = FLIGHT_CLOCK,
) -> List[Dict[str, Any]]:
    """Causally merge per-worker records into one timeline.

    Each worker of a real cluster records times on its *own* monotonic clock,
    so raw times are not comparable across processes.  Workers report an
    epoch offset estimate (``time.time() - loop.time()``, sampled once at
    startup); adding it maps every record onto the shared wall clock.  The
    merged timeline is normalised so its earliest point is zero and sorted by
    ``(time, worker, seq)`` — within one worker that preserves the true causal
    record order, across workers it is as causal as NTP-grade clock agreement
    allows, which is exactly what a post-mortem needs.

    Every merged record is a copy that gains ``worker`` (the reporting
    replica).  ``clock`` maps each time field a record may set to the field
    its cluster time is written to (:data:`FLIGHT_CLOCK`,
    :data:`REPORT_CLOCK`); a record's time is the first of those it sets.
    """
    offsets = offsets or {}
    targets = tuple(clock.values())

    def timed(entry: Dict[str, Any]) -> List[str]:
        return [target for target in targets if entry.get(target) is not None]

    merged: List[Dict[str, Any]] = []
    for worker, records in records_by_worker.items():
        offset = offsets.get(worker, 0.0)
        for record in records:
            entry = dict(record, worker=worker)
            for source, target in clock.items():
                if record.get(source) is not None:
                    entry[target] = record[source] + offset
            merged.append(entry)
    base = min((entry[t] for entry in merged for t in timed(entry)), default=0.0)
    for entry in merged:
        for target in timed(entry):
            entry[target] -= base
    merged.sort(key=lambda e: (e[timed(e)[0]], str(e["worker"]), e.get("seq", 0)))
    return merged


def flight_header(
    recorded: int, retained: int, evicted: int = 0, skipped: int = 0
) -> Dict[str, Any]:
    """The first line of every flight dump: how complete the dump is.

    ``evicted`` events fell off a recorder ring before anyone read them;
    ``skipped`` events were still in a worker's ring but cut from an obs
    frame (or dropped by the launcher's own retention) on the way to a
    merged dump.  ``recorded == retained + evicted + skipped``.
    """
    return {
        "header": "flight-dump",
        "recorded": recorded,
        "retained": retained,
        "evicted": evicted,
        "skipped": skipped,
    }
