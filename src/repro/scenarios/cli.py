"""Command-line interface of the scenario subsystem.

::

    python -m repro.scenarios list
    python -m repro.scenarios run fig3 --scale small
    python -m repro.scenarios sweep fig4 --scale small --jobs 2 --out results.jsonl
    python -m repro.scenarios sweep fig4 --instrument metrics --out results.jsonl
    python -m repro.scenarios report results.jsonl --metric rbc

``list`` shows every registered family with its cell counts; ``run`` executes
one family and prints the result rows as a table; ``sweep`` executes one or
more families against a JSONL :class:`ResultStore`, so re-running the same
sweep serves every already-computed cell from cache.  ``--instrument LEVEL``
instruments every cell: ``metrics`` (per-protocol message counts, per-phase
latency histograms, recovery gauges and their time series — ``report``
prints the stored snapshots' rows, one table per metric type, and ``--csv``
writes the same rows), ``trace`` (causal spans and the flight recorder) or
``all``.  Every deploying cell is checked against the paper's
invariants whatever the level (agreement, validity, supply conservation,
zero-loss accounting): its row carries ``violations``, and ``run`` and
``sweep`` print them and exit 1 when any row has one.  They also print the
verdict of each of the family's claims (the paper's statements across cells,
read from the rows, cached ones included) and exit 1 when one fails::

    python -m repro.scenarios sweep fig4 --jobs 4 --watch --serve 9100
    python -m repro.scenarios run fig4 --instrument metrics --series-out series.jsonl

``--watch`` renders an in-place terminal table of per-cell progress (percent
complete, events/sec, simulated time, ETA) streamed from the workers;
``--serve PORT`` additionally exposes the same state as Prometheus text
(``/metrics``) and JSON (``/state``) on loopback.  ``--series-out`` /
``--series-csv`` export the time series the ``metrics`` level sampled.

``trace`` replays a single cell at ``all``::

    python -m repro.scenarios trace fig4 --cell 0 --out trace.json

It prints the ``zlb.phase.*_s`` histogram rows (which phase — mempool wait,
RBC, binary rounds or commit — dominates time-to-commit, per percentile;
``report`` prints the same rows of a stored cell), writes a
Chrome-tracing/Perfetto-compatible JSON export, reports the row's invariant
violations and exits non-zero when any invariant tripped — the flight
recorder it adds is dumped on the first trip.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.analysis.metrics import format_table
from repro.common.errors import ConfigurationError
from repro.obs.core import LEVELS
from repro.scenarios import registry
from repro.scenarios.runner import RunOutcome, ScenarioRunner
from repro.scenarios.store import ResultStore

DEFAULT_OUT = "scenario-results.jsonl"


def _progress(outcome: RunOutcome, completed: int, total: int) -> None:
    status = "cache" if outcome.cached else f"{outcome.wall_clock_s:6.1f}s"
    print(f"[{completed:>3}/{total}] {status}  {outcome.spec.label()}", flush=True)


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for family in registry.iter_families():
        rows.append(
            {
                "family": family.name,
                "cells_small": len(family.expand("small")),
                "cells_full": len(family.expand("full")),
                "tags": ",".join(family.tags),
                "description": family.description,
            }
        )
    print(format_table(rows))
    return 0


def _run_families(
    args: argparse.Namespace,
    families: List[str],
    store: Optional[ResultStore],
    print_rows: bool = False,
) -> int:
    """Run ``families`` under the shared run/sweep options of ``args``."""
    instrument = _instrument_level(args)
    watcher = None
    server = None
    if args.watch or args.serve is not None:
        from repro.obs.watch import SweepWatcher

        watcher = SweepWatcher(out=sys.stderr)
        if args.serve is not None:
            from repro.obs.serve import WatchServer

            server = WatchServer(watcher, port=args.serve)
            server.start()
            print(
                f"serving sweep state on http://127.0.0.1:{server.port} "
                "(/metrics, /state)",
                flush=True,
            )
    series_cells: List[Tuple[str, dict]] = []
    failed = False
    try:
        for name in families:
            family = registry.get_family(name)
            specs = family.expand(args.scale)
            if instrument:
                specs = [spec.with_overrides(instrument=instrument) for spec in specs]
            runner = ScenarioRunner(
                store=store,
                jobs=args.jobs,
                # The watcher owns the terminal; per-cell progress lines would
                # tear its in-place table.
                progress=None if args.quiet or watcher is not None else _progress,
                watch=watcher,
            )
            report = runner.run(specs)
            print(
                f"{name}: {len(specs)} cells — {report.cache_hits} cache hits, "
                f"{report.executed} executed in {report.wall_clock_s:.1f}s wall-clock"
            )
            if print_rows:
                print(format_table(report.rows))
            for outcome in report.outcomes:
                for violation in outcome.row.get("violations") or ():
                    failed = True
                    print(
                        f"INVARIANT VIOLATION {outcome.spec.label()}: {violation}",
                        file=sys.stderr,
                    )
            rows = [
                dict(outcome.row, wall_clock_s=outcome.wall_clock_s)
                for outcome in report.outcomes
            ]
            for claim, reason in family.verdicts(rows):
                failed = failed or reason is not None
                verdict = "holds" if reason is None else f"FAILED: {reason}"
                print(f"claim {name} / {claim}: {verdict}")
            series_cells.extend(
                (outcome.spec.label(), outcome.telemetry)
                for outcome in report.outcomes
                if outcome.telemetry
            )
            if print_rows and instrument in ("metrics", "all"):
                # `run --instrument metrics` renders the snapshots inline:
                # without a store they would otherwise be collected and
                # silently discarded.
                from repro.obs.export import render_report, telemetry_cells

                records = [
                    {"label": outcome.spec.label(), "telemetry": outcome.telemetry}
                    for outcome in report.outcomes
                ]
                print(render_report(telemetry_cells(records)))
    finally:
        if server is not None:
            server.stop()
    _export_series(series_cells, args.series_out, args.series_csv)
    return 1 if failed else 0


def _export_series(
    cells: List[Tuple[str, dict]],
    series_out: Optional[str],
    series_csv: Optional[str],
) -> None:
    """Export the time series of the telemetry a run/sweep collected."""
    if not cells or not (series_out or series_csv):
        return
    from repro.obs.export import SERIES_COLUMNS, series_rows, write_csv, write_jsonl

    points = list(series_rows(cells))
    if series_out:
        write_jsonl(points, series_out)
        print(f"time series: {series_out} ({len(points)} points)")
    if series_csv:
        write_csv(points, series_csv, columns=SERIES_COLUMNS)
        print(f"time series csv: {series_csv} ({len(points)} points)")


def _instrument_level(args: argparse.Namespace) -> str:
    """``--instrument``, widened to include metrics when an export flag
    needs their time series to produce an artefact."""
    level = args.instrument
    if args.series_out or args.series_csv:
        return "metrics" if level in ("", "metrics") else "all"
    return level


def _cmd_run(args: argparse.Namespace) -> int:
    store = ResultStore(args.out) if args.out else None
    return _run_families(args, [args.family], store, print_rows=True)


def _cmd_sweep(args: argparse.Namespace) -> int:
    store = ResultStore(args.out)
    code = _run_families(args, args.families, store)
    print(f"results: {store.path} ({len(store)} cells cached)")
    return code


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import core as obs_core
    from repro.obs.export import (
        PHASE_PREFIX,
        chrome_trace,
        dominant_phase,
        render_report,
        span_tree,
        write_json,
    )
    from repro.obs.metrics import TelemetryRegistry
    from repro.obs.trace import TraceRuntime

    specs = registry.expand(args.family, args.scale)
    if not 0 <= args.cell < len(specs):
        print(
            f"error: --cell {args.cell} out of range "
            f"({args.family}/{args.scale} has {len(specs)} cells)",
            file=sys.stderr,
        )
        return 2
    spec = specs[args.cell].with_overrides(instrument="all")
    print(f"tracing cell: {spec.label()}", flush=True)

    runtime = TraceRuntime.enabled(dump_path=args.dump)
    metrics = TelemetryRegistry()
    with obs_core.activate(obs_core.Probe(metrics=metrics, trace=runtime)):
        row = registry.run_spec(spec)

    print(format_table([row]))
    summary = runtime.summary()
    print(
        f"traces: {summary['traces']}  spans: {summary['spans']}  "
        f"events: {summary['events']}"
    )
    snapshot = metrics.snapshot()
    print(render_report([(spec.label(), snapshot)], metric_filter=PHASE_PREFIX))
    print(f"dominant phase: {dominant_phase([snapshot])}")
    spans = runtime.tracer.span_records()
    trace = chrome_trace(spans, runtime.tracer.events)
    print(f"chrome trace: {write_json(trace, args.out, indent=None)}")
    if args.tree:
        print(f"span tree: {write_json(span_tree(spans), args.tree)}")

    violations = row.get("violations") or ()
    if not violations:
        print("invariant monitors: all green")
        return 0
    print("invariant monitors: VIOLATED", file=sys.stderr)
    for violation in violations:
        print(f"  {violation}", file=sys.stderr)
    print(f"flight recorder dump: {args.dump}", file=sys.stderr)
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        render_report,
        report_rows,
        telemetry_cells,
        write_csv,
        write_json,
    )

    cells = telemetry_cells(ResultStore(args.store).records(args.family))
    print(render_report(cells, metric_filter=args.metric))
    if args.json and cells:
        write_json([snapshot for _, snapshot in cells], args.json)
        print(f"json: {args.json}")
    if args.csv and cells:
        write_csv(report_rows(cells, args.metric), args.csv)
        print(f"csv: {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="List and run declarative ZLB scenario sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show registered scenario families").set_defaults(
        func=_cmd_list
    )

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scale",
            choices=("small", "full"),
            default="small",
            help="sweep grid scale (default: small)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes (default: 1 = serial)",
        )
        p.add_argument(
            "--quiet", action="store_true", help="suppress per-cell progress lines"
        )
        p.add_argument(
            "--instrument",
            choices=LEVELS,
            default="",
            metavar="LEVEL",
            help="instrument every cell and store what the level collects: "
            "metrics (counters, gauges, latency histograms and their time "
            "series, see `report` and --series-out), trace (causal spans, "
            "flight recorder) or all",
        )
        p.add_argument(
            "--watch",
            action="store_true",
            help="live terminal table of per-cell progress "
            "(percent, events/sec, sim-time, ETA)",
        )
        p.add_argument(
            "--serve",
            type=int,
            default=None,
            metavar="PORT",
            help="expose watch state over loopback HTTP "
            "(Prometheus text on /metrics, JSON on /state); implies --watch",
        )
        p.add_argument(
            "--series-out",
            default=None,
            metavar="PATH",
            help="write sampled time series as JSONL, one point per line "
            "(implies --instrument metrics)",
        )
        p.add_argument(
            "--series-csv",
            default=None,
            metavar="PATH",
            help="write sampled time series as plot-ready long-form CSV "
            "(implies --instrument metrics)",
        )
        p.add_argument(
            "--log-level",
            default=None,
            help="enable stdlib logging for the 'repro' logger tree "
            "(DEBUG, INFO, WARNING, ...)",
        )

    run = sub.add_parser("run", help="run one family and print its rows")
    run.add_argument("family", help="scenario family name (see `list`)")
    add_run_options(run)
    run.add_argument(
        "--out",
        default=None,
        help="optional JSONL result store (enables caching)",
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="run one or more families against a JSONL result store"
    )
    sweep.add_argument("families", nargs="+", help="scenario family names")
    add_run_options(sweep)
    sweep.add_argument(
        "--out",
        default=DEFAULT_OUT,
        help=f"JSONL result store path (default: {DEFAULT_OUT})",
    )
    sweep.set_defaults(func=_cmd_sweep)

    trace = sub.add_parser(
        "trace",
        help="replay one cell with causal tracing and the flight recorder",
    )
    trace.add_argument("family", help="scenario family name (see `list`)")
    trace.add_argument(
        "--cell",
        type=int,
        default=0,
        help="cell index within the family grid (default: 0)",
    )
    trace.add_argument(
        "--scale",
        choices=("small", "full"),
        default="small",
        help="grid scale the cell index refers to (default: small)",
    )
    trace.add_argument(
        "--out",
        default="trace.json",
        help="Chrome-tracing/Perfetto JSON output path (default: trace.json)",
    )
    trace.add_argument(
        "--tree",
        default=None,
        help="optional span-tree JSON output path",
    )
    trace.add_argument(
        "--dump",
        default="flight-recorder.jsonl",
        help="flight-recorder dump path written on an invariant violation "
        "(default: flight-recorder.jsonl)",
    )
    trace.add_argument(
        "--log-level",
        default=None,
        help="enable stdlib logging for the 'repro' logger tree",
    )
    trace.set_defaults(func=_cmd_trace)

    report = sub.add_parser(
        "report",
        help="print the stored metric snapshots, one table per metric type",
    )
    report.add_argument(
        "store",
        nargs="?",
        default=DEFAULT_OUT,
        help=f"JSONL result store to read (default: {DEFAULT_OUT})",
    )
    report.add_argument("--family", default=None, help="restrict to one family")
    report.add_argument(
        "--metric",
        default=None,
        help="substring filter on metric names, for the text report and --csv "
        "alike (e.g. 'rbc.')",
    )
    report.add_argument("--csv", default=None, help="export flattened metrics as CSV")
    report.add_argument(
        "--json", default=None, help="export the raw snapshots as JSON"
    )
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "log_level", None):
            from repro.common.logging import configure_logging

            configure_logging(args.log_level)
        return args.func(args)
    except (ConfigurationError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        # Point stdout at devnull so the interpreter-exit flush of the
        # broken stream cannot re-raise (and flip the exit status to 120).
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
