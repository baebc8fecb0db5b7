"""The flight recorder: bounded per-replica ring buffers of network events.

Every send, delivery, drop and timer firing is appended to the owning
replica's ``collections.deque(maxlen=capacity)``; old entries fall off the
back, so a long run retains only the *recent past* — which is exactly what a
post-mortem needs.  Entries carry a global monotonically increasing sequence
number stamped at record time; because the simulator is single-threaded and
processes events in timestamp order, sorting the union of all buffers by
``(t, seq)`` reconstructs the causal order of everything retained.

The recorder is only ever touched from :class:`~repro.obs.trace.TraceRuntime`
hooks (enabled mode) — the disabled path never sees it.  Dumps are JSONL: a
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

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
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


def merge_worker_events(
    events_by_worker: Dict[Any, List[Dict[str, Any]]],
    offsets: Optional[Dict[Any, float]] = None,
) -> List[Dict[str, Any]]:
    """Causally merge per-worker flight-recorder events into one timeline.

    Each worker of a real cluster records event times on its *own* monotonic
    clock, so raw ``t`` values are not comparable across processes.  Workers
    report an epoch offset estimate (``time.time() - loop.time()``, sampled
    once at startup); adding it maps every event onto the shared wall clock.
    The merged timeline is normalised to start at zero (``t_cluster``) and
    sorted by ``(t_cluster, worker, seq)`` — within one worker that preserves
    the true causal record order, across workers it is as causal as NTP-grade
    clock agreement allows, which is exactly what a post-mortem needs.

    Every merged event keeps its original fields and gains ``worker`` (the
    reporting replica) and ``t_cluster``.
    """
    offsets = offsets or {}
    merged: List[Dict[str, Any]] = []
    for worker, events in events_by_worker.items():
        offset = offsets.get(worker, 0.0)
        for event in events:
            entry = dict(event)
            entry["worker"] = worker
            entry["t_cluster"] = event["t"] + offset
            merged.append(entry)
    if not merged:
        return merged
    base = min(event["t_cluster"] for event in merged)
    for event in merged:
        event["t_cluster"] -= base
    merged.sort(key=lambda e: (e["t_cluster"], str(e["worker"]), e["seq"]))
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
