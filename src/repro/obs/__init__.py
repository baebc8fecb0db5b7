"""Instrumentation: one handle, one activation scope, one guard.

Everything that *watches* the protocol lives here.  Instrumented code holds a
single :class:`Probe` (or ``None`` — see :mod:`repro.obs.core` for the
disabled-mode contract) whose back-ends answer four questions:

* counts, latencies and their time series — :mod:`repro.obs.metrics`,
  sampled every :data:`~repro.obs.core.TICK_S` simulated seconds by
  :meth:`Probe.tick` and compared across a sweep by
  :func:`repro.obs.export.render_report`;
* where did the time go — the same registry: four ``zlb.phase.*_s``
  histograms split time-to-commit into mempool wait, reliable broadcast,
  binary consensus and commit, on the simulator and on real sockets alike
  (:func:`repro.obs.export.dominant_phase` names the largest);
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
    from repro.obs.export import PHASE_PREFIX, dominant_phase, render_report

    probe = obs.Probe.at_level("metrics")
    with obs.activate(probe):
        system = ZLBSystem.create(...)   # picks up the active probe
        system.run_instances(2)
    snapshot = probe.metrics.snapshot()
    print(render_report([("cell", snapshot)], metric_filter=PHASE_PREFIX))
    print(dominant_phase([snapshot]))
"""

from repro.obs.core import LEVELS, Probe, activate, current
from repro.obs.metrics import TelemetryRegistry
from repro.obs.trace import TraceRuntime

__all__ = [
    "LEVELS",
    "Probe",
    "activate",
    "current",
    "TelemetryRegistry",
    "TraceRuntime",
]
