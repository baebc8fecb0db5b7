"""Scenario execution: serial or process-parallel, cache-aware.

:class:`ScenarioRunner` takes a list of :class:`ScenarioSpec` cells and

1. resolves cache hits against an optional :class:`ResultStore`;
2. executes the remaining cells either in-process (``jobs=1``) or on a
   ``multiprocessing`` pool (``jobs>1``), shipping each spec across the
   process boundary in its canonical JSON form;
3. reports per-cell and total wall-clock time, invoking an optional progress
   callback as cells complete.

Because every cell is fully determined by its spec (one seed, one
configuration) and results are keyed by the spec's content hash, parallel
execution is order-independent: the runner reassembles outcomes in the input
order regardless of which worker finished first, and a serial and a parallel
sweep of the same specs produce identical rows.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import core as obs_core
from repro.obs.watch import SweepWatcher, cell_publisher
from repro.scenarios import registry
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import ResultStore

ProgressCallback = Callable[["RunOutcome", int, int], None]

#: Where cells publish live progress events: ``None`` (no watcher), the
#: parent watcher's ``ingest`` (serial runs) or a queue putter installed by
#: the pool initializer (parallel workers).  Module-level so
#: ``_execute_cell`` finds it without widening its picklable signature.
_WATCH_SINK: Optional[Callable[[Dict[str, Any]], None]] = None


def _init_watch_worker(queue: Any) -> None:
    """Pool initializer: route this worker's progress events to the queue."""
    global _WATCH_SINK
    _WATCH_SINK = queue.put_nowait


@dataclasses.dataclass
class RunOutcome:
    """One executed (or cache-served) cell."""

    spec: ScenarioSpec
    row: Dict[str, Any]
    cached: bool
    wall_clock_s: float
    #: What ``spec.instrument`` collected (see ``Probe.artefacts``), each None
    #: unless the level includes its back-end: the metrics snapshot (time
    #: series included) ...
    telemetry: Optional[Dict[str, Any]] = None
    #: ... and the trace summary.
    trace: Optional[Dict[str, Any]] = None


@dataclasses.dataclass
class SweepReport:
    """Summary of one :meth:`ScenarioRunner.run` call."""

    outcomes: List[RunOutcome]
    cache_hits: int
    executed: int
    wall_clock_s: float

    @property
    def rows(self) -> List[Dict[str, Any]]:
        return [outcome.row for outcome in self.outcomes]


def _execute_cell(
    payload: str,
) -> Tuple[str, Dict[str, Any], float, Dict[str, Dict[str, Any]]]:
    """Worker entry point: run one spec from its JSON form.

    Module-level so ``multiprocessing`` can pickle it; returns the spec hash
    alongside the row so the parent can reorder results deterministically.
    When the spec asks for instrumentation, a fresh probe of that level is
    activated around the cell — every instrumented constructor below
    (simulators, ZLB systems) picks it up — and what it collected rides along
    with the row, keyed like the store record (``telemetry``/``trace``).

    With a watch sink installed the probe also carries the watcher's
    publisher — without touching the spec or its hash — so every tick
    publishes a progress event, around a bare cell too.  Instrumentation is
    purely observational (no randomness, no scheduling), so watching a cell
    cannot perturb it.
    """
    spec = ScenarioSpec.from_json(payload)
    start = time.perf_counter()
    sink = _WATCH_SINK
    publisher = None
    if sink is not None:
        publisher = cell_publisher(sink, spec.label(), spec.spec_hash)
        publisher({"kind": "cell-start", "max_time": spec.max_time})
    artefacts: Dict[str, Dict[str, Any]] = {}
    if spec.instrument or publisher is not None:
        probe = obs_core.Probe.at_level(spec.instrument, publisher=publisher)
        with obs_core.activate(probe):
            row = registry.run_spec(spec)
        artefacts = probe.artefacts()
    else:
        row = registry.run_spec(spec)
    elapsed = time.perf_counter() - start
    if publisher is not None:
        publisher({"kind": "cell-end", "wall_s": elapsed})
    return spec.spec_hash, row, elapsed, artefacts


class ScenarioRunner:
    """Executes scenario specs with caching, parallelism and progress."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        progress: Optional[ProgressCallback] = None,
        watch: Optional[SweepWatcher] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.store = store
        self.jobs = jobs
        self.progress = progress
        self.watch = watch

    def run(self, specs: Sequence[ScenarioSpec]) -> SweepReport:
        """Run every spec, serving cached cells from the store when possible."""
        specs = list(specs)
        started = time.perf_counter()
        outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
        pending: List[Tuple[int, ScenarioSpec]] = []
        completed = 0
        if self.watch is not None:
            self.watch.total_cells = len(specs)

        for index, spec in enumerate(specs):
            record = self.store.get(spec) if self.store is not None else None
            if record is not None:
                outcomes[index] = RunOutcome(
                    spec=spec,
                    row=dict(record["row"]),
                    cached=True,
                    # What the cell took when it ran, so a claim on wall
                    # clock reads a measurement on a resumed sweep too.
                    wall_clock_s=record["wall_clock_s"],
                    telemetry=record.get("telemetry"),
                    trace=record.get("trace"),
                )
                completed += 1
                self._notify(outcomes[index], completed, len(specs))
            else:
                pending.append((index, spec))

        if self.watch is not None and completed:
            self.watch.note_cached(completed)

        try:
            if pending:
                if self.jobs == 1 or len(pending) == 1:
                    results = self._run_serial(pending)
                else:
                    results = self._run_parallel(pending)
                # Both strategies yield outcomes as cells complete, so the
                # store is written incrementally — a killed sweep keeps its
                # finished cells and resumes from cache.
                for index, outcome in results:
                    outcomes[index] = outcome
                    if self.store is not None:
                        self.store.put(
                            outcome.spec,
                            outcome.row,
                            outcome.wall_clock_s,
                            telemetry=outcome.telemetry,
                            trace=outcome.trace,
                        )
                    completed += 1
                    self._notify(outcome, completed, len(specs))
        finally:
            if self.watch is not None:
                self.watch.finish()

        total = time.perf_counter() - started
        done = [outcome for outcome in outcomes if outcome is not None]
        return SweepReport(
            outcomes=done,
            cache_hits=sum(1 for outcome in done if outcome.cached),
            executed=sum(1 for outcome in done if not outcome.cached),
            wall_clock_s=total,
        )

    # -- execution strategies --------------------------------------------------

    def _run_serial(
        self, pending: Sequence[Tuple[int, ScenarioSpec]]
    ) -> Iterator[Tuple[int, RunOutcome]]:
        global _WATCH_SINK
        if self.watch is not None:
            # In-process cells publish straight into the watcher — no queue.
            _WATCH_SINK = self.watch.ingest
        try:
            for index, spec in pending:
                _, row, elapsed, artefacts = _execute_cell(spec.to_json())
                yield index, RunOutcome(
                    spec=spec, row=row, cached=False, wall_clock_s=elapsed, **artefacts
                )
        finally:
            if self.watch is not None:
                _WATCH_SINK = None

    def _run_parallel(
        self, pending: Sequence[Tuple[int, ScenarioSpec]]
    ) -> Iterator[Tuple[int, RunOutcome]]:
        import multiprocessing

        by_hash: Dict[str, List[int]] = {}
        specs_by_index: Dict[int, ScenarioSpec] = {}
        for index, spec in pending:
            by_hash.setdefault(spec.spec_hash, []).append(index)
            specs_by_index[index] = spec

        payloads = [spec.to_json() for _, spec in pending]
        # Prefer fork so families registered at runtime (outside the built-in
        # library) exist in the workers; spawn-only platforms fall back to the
        # default context, where only importable registrations survive.
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = multiprocessing.get_context()
        initializer = None
        initargs: Tuple[Any, ...] = ()
        if self.watch is not None:
            # Workers stream progress over a queue the watcher drains on its
            # own thread (timeout-polled, so a dead worker can never wedge it).
            watch_queue = context.Queue()
            initializer = _init_watch_worker
            initargs = (watch_queue,)
            self.watch.start(watch_queue)
        with context.Pool(
            processes=min(self.jobs, len(pending)),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            for spec_hash, row, elapsed, artefacts in pool.imap_unordered(
                _execute_cell, payloads
            ):
                index = by_hash[spec_hash].pop(0)
                yield index, RunOutcome(
                    spec=specs_by_index[index],
                    row=row,
                    cached=False,
                    wall_clock_s=elapsed,
                    **artefacts,
                )

    def _notify(self, outcome: RunOutcome, completed: int, total: int) -> None:
        if self.progress is not None:
            self.progress(outcome, completed, total)


def run_specs(
    specs: Sequence[ScenarioSpec],
    store: Optional[ResultStore] = None,
) -> List[Dict[str, Any]]:
    """Serial convenience wrapper returning plain rows (experiment wrappers)."""
    return ScenarioRunner(store=store).run(specs).rows
