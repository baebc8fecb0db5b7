"""Instrumentation: one handle, one activation scope, one guard.

Everything that *watches* the protocol lives here.  Instrumented code holds a
single :class:`Probe` (or ``None`` — see :mod:`repro.obs.core` for the
disabled-mode contract) whose back-ends answer four questions:

* counts, latencies and their time series — :mod:`repro.obs.metrics`,
  sampled every :data:`~repro.obs.core.TICK_S` simulated seconds by
  :meth:`Probe.tick` and compared across a sweep by
  :func:`repro.obs.export.render_report`;
* where did the time go — :mod:`repro.obs.critical_path` (time-to-commit
  per protocol phase);
* what happened before the crash — :mod:`repro.obs.trace` (causal spans)
  and :mod:`repro.obs.recorder` (flight recorder);
* watch it live — the tick's progress events, folded by
  :mod:`repro.obs.watch` (terminal dashboard) and served by
  :mod:`repro.obs.serve` (``/metrics`` and ``/state``).

The online invariant monitors (:mod:`repro.obs.monitors`) need no probe: each
deployment owns them, so every run is checked.

:mod:`repro.obs.export` writes every artefact (JSON, JSONL, CSV, Prometheus
text, Chrome trace).  Typical use::

    from repro import obs

    probe = obs.Probe.at_level("all")
    with obs.activate(probe):
        system = ZLBSystem.create(...)   # picks up the active probe
        system.run_instances(2)
    print(probe.metrics.snapshot()["histograms"])
    print(obs.render_critical_path(obs.critical_path(probe.trace.tracer)))
"""

from repro.obs.core import LEVELS, Probe, activate, current
from repro.obs.critical_path import critical_path, render_critical_path
from repro.obs.metrics import TelemetryRegistry
from repro.obs.trace import TraceRuntime

__all__ = [
    "LEVELS",
    "Probe",
    "activate",
    "current",
    "critical_path",
    "render_critical_path",
    "TelemetryRegistry",
    "TraceRuntime",
]
