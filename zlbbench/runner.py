"""Runs one workload once, bare (counted) or traced (timed), into a result record."""

from __future__ import annotations

import asyncio
import gc
import os
import subprocess
from typing import Any, Dict, List, Optional

from zlbbench import cluster, manifest, probes, sim, stats
from zlbbench.trace import Tracer

#: Set-ups per bare run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A probe runs for this share of the run's seconds (0.5 s at 20 s, 0.75 s at 30 s).
PROBE_SHARE = 1 / 40


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """One run: its metrics (per the manifest), checks and bookkeeping."""
    declared = manifest.load()
    if workload not in manifest.workload_names(declared):
        raise ValueError(f"unknown workload {workload!r}")
    tracer = Tracer() if trace else None
    if workload in sim.CELLS:
        values, details = _run_sim(workload, seed, seconds, tracer)
    else:
        values, details = asyncio.run(_run_cluster(workload, seed, seconds, tracer))
    if tracer is not None:
        captured = probes.capture(seed)
        values.update(probes.run_probes(captured, seconds * PROBE_SHARE))
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(
                os.path.join(out_dir, f"trace-{workload}.json"),
                {"workload": workload, "seed": seed},
            )
    problems = details["problems"]
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "attempted": details["offered"],
        "failed": details["failed"],
        "metrics": manifest.select(declared, trace, values),
        "details": details,
    }


def provenance() -> Dict[str, Any]:
    """Host fingerprint and commit, recorded once per result file."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(manifest.PATH),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"host": stats.host_fingerprint(), "commit": commit or "unknown"}


# -- cluster -----------------------------------------------------------------


async def _run_cluster(workload: str, seed: int, seconds: float, tracer: Optional[Tracer]):
    counted = tracer is None
    setups: List[float] = []
    committee = None
    for _ in range(SETUP_REPEATS if counted else 1):
        if committee is not None:
            await committee.close()
            committee = None
            gc.collect()
        committee = await cluster.build_committee(
            cluster.spec_for(workload, seed, seconds, counted)
        )
        setups.append(committee.setup_s)
    try:
        if counted:
            observed = await cluster.run_counted(workload, committee, seconds)
        else:
            observed = await cluster.run_timed(workload, committee, seconds, tracer)
    finally:
        await committee.close()
    if counted:
        return (
            cluster.end_to_end(observed, setups, stats.peak_rss_mb()),
            cluster.details(observed, setups),
        )
    return cluster.per_layer(observed, tracer), cluster.details(observed)


# -- simulator ---------------------------------------------------------------


def _run_sim(workload: str, seed: int, seconds: float, tracer: Optional[Tracer]):
    observed = sim.run_sim(workload, seed, seconds, tracer)
    values = sim.end_to_end(observed) if tracer is None else sim.per_layer(observed, tracer)
    return values, sim.details(observed)
