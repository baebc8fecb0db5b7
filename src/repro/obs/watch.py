"""Live watching: progress events folded into a table, rendered and served.

Producers publish small event dicts over a queue (or straight into
:meth:`Watcher.ingest`) and a parent-side :class:`Watcher` folds them into a
table of rows, rendered in place on a TTY (ANSI cursor-up redraw) or as
periodic plain lines otherwise, and exposed as :meth:`Watcher.state` (JSON)
and :meth:`Watcher.prometheus_text` for :class:`repro.obs.serve.WatchServer`.

:class:`Watcher` owns everything that is the same for every table — the
queue pump, throttled rendering, the serve surface; a concrete watcher says
what a row is (a *row type*: header, line, ``to_dict``, which ``to_dict``
fields are Prometheus series) and how one event folds into the rows.  :class:`SweepWatcher` (one row per
scenario cell: ``cell-start`` / probe ``tick`` / ``cell-end`` events) lives
here; :class:`repro.cluster.watch.ClusterWatcher` (one row per replica
process) adds the cluster's safety monitors and forensics on top.

Robustness rule: the drain loop *never blocks indefinitely*.  It reads the
queue with a short timeout, refreshes the rendering on every timeout and
re-checks its stop flag, so a producer that dies mid-run (killed, OOM,
crashed) stalls its row at the last published event instead of deadlocking
or freezing the table.  Publishing uses ``put_nowait`` and swallows queue
failures — observation must never take down the run it is observing.
"""

from __future__ import annotations

import dataclasses
import queue as queue_mod
import sys
import threading
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from repro.obs.export import prometheus_text

Sample = Tuple[str, Dict[str, Any], Any]


class Watcher:
    """Queue pump, throttled renderer and serve surface of one table of rows.

    Subclasses set :attr:`row_type` — a class with ``HEADER``, ``line()``,
    ``to_dict()``, ``LABEL`` (Prometheus label name, ``to_dict`` key of its
    value) and ``METRICS`` (``(family, type, to_dict key)`` triples; a dict
    value fans out into one ``quantile``-labelled sample per item, ``None``
    is skipped) — plus :attr:`rows_key` and :attr:`FAMILIES`, and implement
    :meth:`fold`, :meth:`headline`, :meth:`totals` and :meth:`total_samples`.
    """

    #: The class of one table row.
    row_type: Any = None
    #: Key of the row list in :meth:`state`.
    rows_key = "rows"
    #: ``(family, type)`` of the table-level Prometheus series.
    FAMILIES: Sequence[Tuple[str, str]] = ()

    def __init__(
        self,
        out: Optional[TextIO] = None,
        render: bool = True,
        refresh_s: float = 0.5,
        poll_s: float = 0.2,
    ) -> None:
        self.out = out if out is not None else sys.stderr
        self.render_enabled = render
        self.refresh_s = refresh_s
        self.poll_s = poll_s
        self.rows: Dict[Any, Any] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_render = 0.0
        self._rendered_lines = 0
        self._isatty = bool(getattr(self.out, "isatty", lambda: False)())

    # -- what a concrete watcher provides ----------------------------------------

    def fold(self, event: Dict[str, Any]) -> None:
        """Fold one event into :attr:`rows` (called with the lock held)."""
        raise NotImplementedError

    def headline(self) -> str:
        """First line of the rendered table (lock held)."""
        raise NotImplementedError

    def totals(self) -> Dict[str, Any]:
        """Table-level keys of :meth:`state` (lock held)."""
        raise NotImplementedError

    def total_samples(self, state: Dict[str, Any]) -> Iterable[Sample]:
        """Table-level Prometheus samples, from a :meth:`state` snapshot."""
        raise NotImplementedError

    # -- ingestion ---------------------------------------------------------------

    def ingest(self, event: Dict[str, Any]) -> None:
        """Fold one event into the table (thread-safe)."""
        with self._lock:
            self.fold(event)
        self._maybe_render()

    def row(self, key: Any, *args: Any) -> Any:
        """The row for ``key``, created on first sight (lock held)."""
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = self.row_type(*args, key)
        return row

    # -- queue pump ----------------------------------------------------------------

    def start(self, queue: Any) -> None:
        """Drain ``queue`` on a daemon thread until :meth:`finish`."""
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._pump, args=(queue,), name="obs-watch", daemon=True
        )
        self._thread.start()

    def _pump(self, queue: Any) -> None:
        while True:
            try:
                event = queue.get(timeout=self.poll_s)
            except queue_mod.Empty:
                # No event is still news: ETAs and ages move, stalled rows
                # degrade.
                self._maybe_render()
                if self._stop.is_set():
                    return
                continue
            except (OSError, EOFError, ValueError):
                # Queue torn down underneath us (pool shutdown) — stop quietly.
                return
            self.ingest(event)

    def finish(self) -> None:
        """Stop the pump after one final drain pass and render the end state."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(self.poll_s * 10, 2.0))
            self._thread = None
        if self.render_enabled:
            self.render(force=True)

    # -- rendering -----------------------------------------------------------------

    def _maybe_render(self) -> None:
        if self.render_enabled:
            self.render()

    def render(self, force: bool = False) -> None:
        now = perf_counter()
        if not force and now - self._last_render < self.refresh_s:
            return
        self._last_render = now
        with self._lock:
            lines = self._table_lines()
        if self._isatty and self._rendered_lines:
            # In-place redraw: move the cursor up over the previous frame.
            self.out.write(f"\x1b[{self._rendered_lines}F\x1b[J")
        self.out.write("\n".join(lines) + "\n")
        self._rendered_lines = len(lines)
        self.out.flush()

    def _table_lines(self) -> List[str]:
        lines = [self.headline(), self.row_type.HEADER]
        lines.extend(self.rows[key].line() for key in sorted(self.rows))
        return lines

    # -- serve surface (WatchServer reads these) -------------------------------------

    def state(self) -> Dict[str, Any]:
        with self._lock:
            state = self.totals()
            state[self.rows_key] = [
                self.rows[key].to_dict() for key in sorted(self.rows)
            ]
            return state

    def prometheus_text(self) -> str:
        """Prometheus text format of the current :meth:`state`."""
        state = self.state()
        samples = list(self.total_samples(state))
        label, label_key = self.row_type.LABEL
        for row in state[self.rows_key]:
            labels = {label: row[label_key]}
            for family, _, key in self.row_type.METRICS:
                value = row[key]
                if isinstance(value, dict):
                    samples.extend(
                        (family, {**labels, "quantile": quantile}, item)
                        for quantile, item in sorted(value.items())
                    )
                elif value is not None:
                    samples.append((family, labels, value))
        families = [(family, kind) for family, kind, _ in self.row_type.METRICS]
        return prometheus_text([*self.FAMILIES, *families], samples)


# -- the sweep table -----------------------------------------------------------


@dataclasses.dataclass
class CellProgress:
    """Latest known state of one sweep cell."""

    HEADER = (
        f"  {'cell':<40} {'%':>6} {'events/s':>10} "
        f"{'sim-time':>10} {'eta':>8} {'status':<8}"
    )
    LABEL = ("cell", "cell")
    METRICS = (
        ("repro_cell_progress", "gauge", "pct"),
        ("repro_cell_events_per_sec", "gauge", "events_per_sec"),
        ("repro_cell_sim_time_seconds", "gauge", "sim_time"),
    )

    cell: str
    key: str
    status: str = "running"
    sim_time: float = 0.0
    max_time: Optional[float] = None
    events: int = 0
    events_per_sec: float = 0.0
    started_wall: float = dataclasses.field(default_factory=perf_counter)
    wall_s: Optional[float] = None

    @property
    def pct(self) -> Optional[float]:
        if self.status == "done":
            return 1.0
        if self.max_time:
            return min(self.sim_time / self.max_time, 1.0)
        return None

    def eta_s(self) -> Optional[float]:
        pct = self.pct
        if self.status == "done" or pct is None or pct <= 0.0:
            return None
        elapsed = perf_counter() - self.started_wall
        return elapsed * (1.0 - pct) / pct

    def line(self) -> str:
        pct = self.pct
        pct_text = f"{pct * 100.0:5.1f}%" if pct is not None else "    --"
        eta = self.eta_s()
        eta_text = f"{eta:7.1f}s" if eta is not None else "      --"
        return (
            f"  {self.cell[:40]:<40} {pct_text:>6} "
            f"{self.events_per_sec:>10.0f} {self.sim_time:>9.2f}s "
            f"{eta_text:>8} {self.status:<8}"
        )

    def to_dict(self) -> Dict[str, Any]:
        row = dataclasses.asdict(self)
        del row["started_wall"]
        row["pct"] = self.pct
        row["eta_s"] = self.eta_s()
        return row


class SweepWatcher(Watcher):
    """Per-cell progress of a scenario sweep."""

    row_type = CellProgress
    rows_key = "cells"
    FAMILIES = (
        ("repro_sweep_cells_total", "gauge"),
        ("repro_sweep_cells_completed", "gauge"),
    )

    def __init__(self, total_cells: int = 0, **options: Any) -> None:
        super().__init__(**options)
        self.total_cells = total_cells
        self.completed = 0
        self.cached = 0

    def fold(self, event: Dict[str, Any]) -> None:
        kind = event.get("kind")
        key = str(event.get("key", ""))
        cell = self.row(key, str(event.get("cell", key)))
        if kind == "tick":
            cell.sim_time = float(event.get("sim_time") or 0.0)
            if event.get("max_time"):
                cell.max_time = float(event["max_time"])
            cell.events = int(event.get("events") or 0)
            cell.events_per_sec = float(event.get("events_per_sec") or 0.0)
        elif kind == "cell-end":
            if cell.status != "done":
                cell.status = "done"
                self.completed += 1
            cell.wall_s = float(event.get("wall_s") or 0.0)
            if event.get("sim_time"):
                cell.sim_time = float(event["sim_time"])
        elif kind == "cell-start" and event.get("max_time"):
            cell.max_time = float(event["max_time"])

    def note_cached(self, count: int) -> None:
        """Record cells satisfied from the store (they never stream events)."""
        with self._lock:
            self.cached += count

    def headline(self) -> str:
        done = self.completed + self.cached
        total = self.total_cells or (len(self.rows) + self.cached)
        return f"sweep: {done}/{total} cells done" + (
            f" ({self.cached} cached)" if self.cached else ""
        )

    def totals(self) -> Dict[str, Any]:
        return {
            "total_cells": self.total_cells,
            "completed": self.completed,
            "cached": self.cached,
        }

    def total_samples(self, state: Dict[str, Any]) -> Iterable[Sample]:
        yield "repro_sweep_cells_total", {}, state["total_cells"]
        yield "repro_sweep_cells_completed", {}, state["completed"] + state["cached"]


def cell_publisher(sink, cell: str, key: str):
    """A producer-side publisher stamping events with the cell identity.

    ``sink`` is the watcher's ``ingest`` (in-process cells) or a queue's
    ``put_nowait`` (pool workers).  Failures are swallowed: a full or
    torn-down queue must degrade to lost progress frames, never to a blocked
    or crashed worker.
    """

    def publish(event: Dict[str, Any]) -> None:
        event.setdefault("cell", cell)
        event["key"] = key
        try:
            sink(event)
        except Exception:
            pass

    return publish
