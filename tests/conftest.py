"""Shared fixtures: flight recorder attached to simulation-heavy suites.

Tests under ``tests/zlb`` and ``tests/integration`` run whole committees
through the simulator; when one fails, the assertion message alone rarely
says *which* message or timer led up to the bad state.  The autouse fixture
below activates a trace-only :class:`~repro.obs.Probe` (tracing is strictly
observational — it consumes no randomness and schedules no events, so
seeded runs are byte-identical with or without it) and, on failure, the
flight recorder's causally-ordered tail of delivery/timer events is appended
to the test report.

Opt out with ``REPRO_NO_FLIGHT_RECORDER=1`` (e.g. when benchmarking).
"""

import os

import pytest

from repro import obs

#: Suites that get the recorder; everything else runs untouched.
_FLIGHT_SUITES = ("tests/zlb", "tests/integration")


def _wants_recorder(item) -> bool:
    if os.environ.get("REPRO_NO_FLIGHT_RECORDER"):
        return False
    path = str(item.fspath).replace(os.sep, "/")
    return any(f"/{suite}/" in path or path.endswith(suite) for suite in _FLIGHT_SUITES)


@pytest.fixture(autouse=True)
def flight_recorder(request):
    """Activate a tracing probe around simulation-heavy tests (else no-op)."""
    if not _wants_recorder(request.node):
        yield None
        return
    runtime = obs.TraceRuntime.enabled(recorder_capacity=256)
    request.node._flight_recorder = runtime.recorder
    with obs.activate(obs.Probe(trace=runtime)):
        yield runtime


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    recorder = getattr(item, "_flight_recorder", None)
    if recorder is not None and report.when == "call" and report.failed:
        report.sections.append(("flight recorder", recorder.render()))
