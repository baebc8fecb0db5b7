"""Declarative scenario orchestration.

This package turns every experiment — the paper's figures and tables as well
as brand-new workloads — into a *scenario family*: a named grid of frozen
:class:`~repro.scenarios.spec.ScenarioSpec` cells that can be listed,
expanded, executed serially or in parallel, and cached by content hash.

Layout:

* :mod:`repro.scenarios.spec` — the frozen spec value object (hash + JSON)
  and the one way to deploy it: ``system_for(spec)`` / ``run_system(spec)``;
* :mod:`repro.scenarios.registry` — named families (grid, cell runner and
  the paper's claims over the rows), ``@scenario`` decorator, sweep-grid
  expansion;
* :mod:`repro.scenarios.runner` — serial / ``multiprocessing`` execution with
  progress callbacks and wall-clock accounting;
* :mod:`repro.scenarios.store` — the JSONL result cache keyed by spec hash;
* :mod:`repro.scenarios.library` — the built-in families (fig3-fig6, table1,
  appendix-b, sec53, quickstart, churn, crash-recovery, jitter-stress) and
  :mod:`repro.scenarios.scale` (``scale``);
* :mod:`repro.scenarios.cli` — ``python -m repro.scenarios
  list|run|sweep|trace|report`` (``--instrument LEVEL`` instruments cells;
  ``report`` renders the stored snapshots as comparative tables).
"""

from repro.scenarios.registry import (
    ScenarioFamily,
    expand,
    expand_grid,
    family_names,
    get_family,
    iter_families,
    register,
    run_spec,
    scenario,
)
from repro.scenarios.runner import RunOutcome, ScenarioRunner, SweepReport, run_specs
from repro.scenarios.spec import (
    SPEC_SCHEMA_VERSION,
    ScenarioSpec,
    run_system,
    system_for,
)
from repro.scenarios.store import ResultStore

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "ScenarioSpec",
    "ScenarioFamily",
    "ScenarioRunner",
    "SweepReport",
    "RunOutcome",
    "ResultStore",
    "expand",
    "expand_grid",
    "family_names",
    "get_family",
    "iter_families",
    "register",
    "run_spec",
    "run_specs",
    "run_system",
    "scenario",
    "system_for",
]
