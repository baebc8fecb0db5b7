"""Command line of the benchmark: ``python3 -m zlbbench``.

* ``python3 -m zlbbench --workload NAME --seed S --seconds T --trace 0|1`` runs
  one workload once, prints every metric of that mode by name with its unit,
  and ends with one JSON line (``correct``, ``attempted``, ``failed``,
  ``metrics``).  ``--trace 0`` is a bare run: a fixed amount of work under
  the call counter, giving the bounded end-to-end metrics.  ``--trace 1`` is a
  traced run: wall clock, counters and span shares per layer, plus the probes.
* Without ``--workload`` every workload is run in both modes.
* ``python3 -m zlbbench compare A.json B.json`` compares two result files.

Exits non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional


def _bootstrap_path() -> None:
    """Make ``repro`` importable from a plain checkout (``src`` layout)."""
    try:
        import repro  # noqa: F401
    except ImportError:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        sys.path.insert(0, os.path.join(root, "src"))


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from zlbbench import compare

        return compare.main(argv[1:])

    parser = argparse.ArgumentParser(prog="python3 -m zlbbench", description=__doc__)
    parser.add_argument("--workload", help="one workload; default: all, in both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both modes")
    parser.add_argument(
        "--repeat", type=int, default=1, help="runs per workload and mode, seeds S, S+1, ..."
    )
    parser.add_argument("--out", help="directory for results.json and the span files")
    args = parser.parse_args(argv)

    _bootstrap_path()
    from zlbbench import manifest, runner

    workloads = [args.workload] if args.workload else manifest.workload_names(manifest.load())
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    plan = [
        (workload, trace, args.seed + repeat)
        for workload in workloads
        for trace in modes
        for repeat in range(args.repeat)
    ]
    if len(plan) == 1:
        workload, trace, seed = plan[0]
        runs = [runner.run(workload, seed, args.seconds, trace, args.out)]
        _report(runs[0])
    else:
        runs = _run_each_in_its_own_process(plan, args.seconds, args.out)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "results.json"), "w", encoding="utf-8") as handle:
            json.dump({**runner.provenance(), "runs": runs}, handle, indent=1)
    last = runs[-1]
    # The last line of standard output is the machine-readable result of the
    # last run (the only run when a workload and a mode are given).
    print(json.dumps({key: last[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(run["correct"] for run in runs) else 1


def _run_each_in_its_own_process(plan, seconds: float, out: Optional[str]) -> List[dict]:
    """Several runs: one child process each, so that peak RSS, the collector's
    heap and the replica stack's module-level memo tables start fresh every
    time, as they do when the runs are started one by one."""
    import shutil
    import subprocess
    import tempfile

    keep = out is not None
    os.makedirs(out or ".zlbbench_tmp", exist_ok=True)
    runs = []
    for workload, trace, seed in plan:
        child_out = tempfile.mkdtemp(prefix="run-", dir=out or ".zlbbench_tmp")
        try:
            child = subprocess.run(
                [
                    sys.executable, "-m", "zlbbench",
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", repr(seconds), "--trace", str(int(trace)),
                    "--out", child_out,
                ],
                capture_output=True,
                text=True,
            )
            # Everything but the child's own machine-readable last line.
            sys.stdout.write("".join(child.stdout.splitlines(keepends=True)[:-1]))
            sys.stdout.flush()
            results = os.path.join(child_out, "results.json")
            if not os.path.exists(results):
                sys.stderr.write(child.stderr)
                raise RuntimeError(f"run of {workload} (seed {seed}) ended without a result")
            with open(results, encoding="utf-8") as handle:
                runs.extend(json.load(handle)["runs"])
            if keep:
                for name in os.listdir(child_out):
                    if name.startswith("trace-"):
                        shutil.move(
                            os.path.join(child_out, name),
                            os.path.join(out, f"seed{seed}-{name}"),
                        )
        finally:
            shutil.rmtree(child_out, ignore_errors=True)
    if not keep:
        try:
            os.rmdir(".zlbbench_tmp")
        except OSError:
            pass
    return runs


def _report(result: dict) -> None:
    mode = "traced" if result["trace"] else "bare"
    print(f"== {result['workload']}  seed {result['seed']}  {result['run_seconds']:g} s  {mode}")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    details = result["details"]
    print(
        f"{'checks':40s} {'ok' if result['correct'] else 'FAILED':>16s} "
        f"({result['failed']} of {result['attempted']} failed)"
    )
    for problem in details["problems"]:
        print(f"  ! {problem}")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
