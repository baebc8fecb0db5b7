"""JSONL result store keyed by scenario spec hash.

The store is an append-only JSON-lines file: one record per executed cell,
holding the spec hash, the full spec (for provenance), the result row and the
wall-clock cost.  On open, the file is replayed into an in-memory index
(last record wins), so repeated sweeps skip every cell whose hash is already
present — the cache-hit path of ``python -m repro.scenarios sweep``.

Records are self-describing, so a results file doubles as the experiment's
output artefact: ``rows()`` extracts plain result rows for tabulation.
"""

from __future__ import annotations

import copy
import json
import os
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.scenarios.spec import ScenarioSpec, spec_key


class ResultStore:
    """Append-only JSONL cache of scenario results, indexed by spec hash."""

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)
        self._index: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # tolerate a torn trailing line from a killed run
                if isinstance(record, dict) and "hash" in record:
                    self._index[record["hash"]] = record

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, spec_or_hash: Union[ScenarioSpec, str]) -> bool:
        return spec_key(spec_or_hash) in self._index

    def get(self, spec_or_hash: Union[ScenarioSpec, str]) -> Optional[Dict[str, Any]]:
        """Return the cached record for the spec (counting hit/miss)."""
        record = self._index.get(spec_key(spec_or_hash))
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def rows(self, family: Optional[str] = None) -> List[Dict[str, Any]]:
        """Result rows of every cached cell, optionally filtered by family."""
        return [
            dict(record["row"])
            for record in self.records(family)
        ]

    def records(self, family: Optional[str] = None) -> List[Dict[str, Any]]:
        """Full records (spec, row, telemetry, cost), optionally by family.

        This is what ``python -m repro.scenarios report`` consumes: records of
        metrics-instrumented cells carry the snapshot under ``"telemetry"``.
        Records are deep copies — mutating them cannot corrupt the in-memory
        cache index behind :meth:`get`.
        """
        return [
            copy.deepcopy(record)
            for record in self._records()
            if family is None or record.get("family") == family
        ]

    def _records(self) -> Iterator[Dict[str, Any]]:
        for key in sorted(self._index):
            yield self._index[key]

    # -- updates ---------------------------------------------------------------

    def put(
        self,
        spec: ScenarioSpec,
        row: Dict[str, Any],
        wall_clock_s: float = 0.0,
        telemetry: Optional[Dict[str, Any]] = None,
        trace: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Append one result record and index it.

        ``telemetry`` (metrics snapshot, time series included) and ``trace``
        (trace summary) are what the cell's ``spec.instrument`` level
        collected; each is stored verbatim so reports can be rendered from
        the JSONL file long after the sweep.
        """
        record = {
            "hash": spec.spec_hash,
            "family": spec.family,
            "label": spec.label(),
            "spec": spec.to_dict(),
            "row": row,
            "wall_clock_s": round(float(wall_clock_s), 4),
        }
        if telemetry is not None:
            record["telemetry"] = telemetry
        if trace is not None:
            record["trace"] = trace
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._index[record["hash"]] = record
        return record
