"""``BENCHMARK.json`` is the one list of workloads and metrics.

The benchmark reads its own manifest instead of repeating the names: a run
prints exactly the metrics the manifest declares, with the manifest's units,
and a metric the code cannot produce is an error rather than a silent gap.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load() -> Dict[str, Any]:
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(manifest: Dict[str, Any]) -> List[str]:
    return [workload["name"] for workload in manifest["workloads"]]


def declared(manifest: Dict[str, Any], trace: bool) -> List[Dict[str, Any]]:
    """The metrics a run in this mode must print."""
    return manifest["per_layer" if trace else "end_to_end"]


def select(manifest: Dict[str, Any], trace: bool, values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """``values`` cut down to the declared metrics, each with its unit."""
    missing = [m["name"] for m in declared(manifest, trace) if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared(manifest, trace)
    }
