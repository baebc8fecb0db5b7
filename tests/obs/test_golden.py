"""Instrumentation must be *observational*: fixed-seed runs are byte-identical.

No back-end consumes randomness or schedules events.  This module drives the
same golden Figure 4 cell as ``tests/scenarios/test_fig4_golden.py`` at every
instrumentation level — bare, ``metrics``, ``trace`` and ``all``, each with
and without a watcher's publisher — and requires every run to agree on every
outcome down to the last float bit of the simulated clock.

It also checks the direction nobody else does: after an ``all`` cell, a bare
cell in the *same process* must produce the very row a bare cell produces
first thing in a fresh process, with no probe left active — instrumentation
leaves nothing behind in the activation scope or in module-level state.  It
does so for the fig4 golden cell and for the first small ``churn`` (which
builds one simulator per round) and ``sec53`` cells, and for the ``fig4``
cell Fig. 5 reads its times off at the ``gamma`` delay.

And it pins the time series the ``metrics`` level samples on a real cell:
event rate, per-protocol message counts, mempool depth and commit-latency
quantiles.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.network import codec
from repro.obs.export import dominant_phase
from repro.scenarios import registry, run_system

from tests.scenarios.test_fig4_golden import GOLDEN, GOLDEN_SPEC

#: The fields of the golden cell pinned at every instrumentation level.
PINNED = (
    "disagreements",
    "committed_transactions",
    "messages_sent",
    "messages_delivered",
    "simulated_time",
)

#: Index of the golden cell (n=9, binary attack, 1000 ms, seed 1) in the
#: registered fig4 grid.
GOLDEN_CELL = 6


@pytest.mark.parametrize("watched", [False, True], ids=["unwatched", "watched"])
@pytest.mark.parametrize("instrument", ["", "metrics", "trace", "all"])
def test_golden_cell_is_byte_identical_at_every_level(instrument, watched):
    events = []
    publisher = events.append if watched else None
    probe = (
        obs.Probe.at_level(instrument, publisher=publisher)
        if instrument or watched
        else None
    )
    with obs.activate(probe):
        result = run_system(GOLDEN_SPEC)
    assert {key: getattr(result, key) for key in PINNED} == {
        key: GOLDEN[key] for key in PINNED
    }
    assert obs.current() is None
    if probe is not None:
        # Each level collected exactly its own artefacts.
        expected = {
            "": set(),
            "metrics": {"telemetry"},
            "trace": {"trace"},
            "all": {"telemetry", "trace"},
        }[instrument]
        assert set(probe.artefacts()) == expected
    if watched:
        assert len(events) > 10
        assert {event["kind"] for event in events} == {"tick"}
        assert events[-1]["events"] > events[0]["events"]


@pytest.mark.parametrize("instrument", ["metrics", "all"])
def test_the_simulator_never_encodes_a_message(instrument, monkeypatch):
    """Bytes are counted where a frame exists: the simulator passes messages
    by reference, so an instrumented cell never runs the wire codec."""
    encoded = []
    encode = codec.encode_message

    def counting(message, *args, **kwargs):
        encoded.append(message.kind)
        return encode(message, *args, **kwargs)

    monkeypatch.setattr(codec, "encode_message", counting)
    with obs.activate(obs.Probe.at_level(instrument)):
        run_system(GOLDEN_SPEC)
    assert encoded == []


_LEAK_SCRIPT = """
import json, sys
from repro import obs
from repro.scenarios import registry
from repro.scenarios.runner import ScenarioRunner

bare = registry.expand(sys.argv[1], "small")[int(sys.argv[2])]
for level in sys.argv[3:]:
    row = ScenarioRunner().run([bare.with_overrides(instrument=level)]).outcomes[0].row
print(json.dumps({"row": row, "active": obs.current() is not None}, sort_keys=True))
"""


#: Total cProfile calls of the golden cell at each level, after one warm
#: bare cell, in one fresh interpreter: ``{"bare": ..., "metrics": ...}``.
_COST_SCRIPT = """
import cProfile, json, pstats
from repro import obs
from repro.scenarios import run_system
from tests.scenarios.test_fig4_golden import GOLDEN_SPEC

run_system(GOLDEN_SPEC)
calls = {}
for level in ("", "metrics", "trace", "all"):
    with obs.activate(obs.Probe.at_level(level) if level else None):
        profile = cProfile.Profile()
        profile.enable()
        run_system(GOLDEN_SPEC)
        profile.disable()
    calls[level or "bare"] = pstats.Stats(profile).total_calls
print(json.dumps(calls))
"""

#: Calls of the golden cell at each level over its bare calls, as measured
#: (840 504 bare calls); each level may cost at most 0.01 more.  While the
#: simulated probe encoded every message to count ``net.bytes_sent``: 1.658,
#: 1.307 and 1.922 of 840 067; before binary rounds started at 1 and the
#: included replicas caught up on the chain: 1.761, 1.368 and 2.079 of
#: 819 632; before the phases moved into the metrics registry: 1.775, 1.369
#: and 2.093 of 819 728.
LEVEL_COST = {"metrics": 1.179, "trace": 1.307, "all": 1.442}


def _fresh_python(script, *args):
    """The last stdout line of ``script`` run by a fresh interpreter with
    ``src`` and the repo root importable."""
    env = dict(os.environ)
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def _run_in_fresh_process(family, cell, *levels):
    return _fresh_python(_LEAK_SCRIPT, family, str(cell), *levels)


def test_what_each_instrumentation_level_costs():
    calls = json.loads(_fresh_python(_COST_SCRIPT))
    ratios = {level: calls[level] / calls["bare"] for level in LEVEL_COST}
    assert all(ratios[level] <= LEVEL_COST[level] + 0.01 for level in LEVEL_COST), (
        calls,
        ratios,
    )


def test_bare_cell_after_a_fully_instrumented_one_is_untouched():
    spec = registry.expand("fig4", "small")[GOLDEN_CELL]
    assert (spec.n, spec.attack, spec.cross_partition_delay, spec.seed) == (
        9, "binary", "1000ms", 1,
    )
    first_in_process = _run_in_fresh_process("fig4", GOLDEN_CELL, "")
    after_all = _run_in_fresh_process("fig4", GOLDEN_CELL, "all", "")
    assert after_all == first_in_process
    assert json.loads(after_all)["active"] is False
    assert (
        json.loads(after_all)["row"]["committed_transactions"]
        == GOLDEN["committed_transactions"]
    )


@pytest.mark.parametrize(
    "family, cell", [("churn", 0), ("fig4", 9), ("fig6", 0), ("sec53", 0)]
)
def test_a_bare_churn_cell_after_an_instrumented_one_is_untouched(family, cell):
    """``churn`` builds one simulator per round under one probe; ``fig4``'s
    binary ``gamma`` cell is one Fig. 5 reads, ``fig6`` reads a blockdepth
    off an attack and ``sec53`` runs 5-10 s partitions."""
    if family == "churn":
        assert registry.expand(family, "small")[cell].param("rounds") > 1
    if family == "fig4":
        spec = registry.expand(family, "small")[cell]
        assert (spec.attack, spec.cross_partition_delay, spec.n) == ("binary", "gamma", 9)
    first_in_process = _run_in_fresh_process(family, cell, "")
    after_all = _run_in_fresh_process(family, cell, "all", "")
    assert after_all == first_in_process
    assert json.loads(after_all)["active"] is False


def test_golden_cell_metrics_sample_series_and_quantiles():
    probe = obs.Probe.at_level("metrics")
    with obs.activate(probe):
        run_system(GOLDEN_SPEC)
    series = probe.metrics.snapshot()["series"]

    assert len(series["sim.events_per_sec"]["points"]) > 10
    assert any(name.startswith("net.messages_sent{") for name in series)
    assert any(name.startswith("mempool.pending{") for name in series)
    assert series["zlb.commit_latency_s.p50"]["points"]
    assert series["zlb.commit_latency_s.p99"]["points"]
    assert all(ring["dropped"] == 0 for ring in series.values())


def test_golden_cell_splits_time_to_commit_into_four_phases():
    """The ``zlb.phase.*_s`` histograms at ``metrics``: one mempool sample per
    transaction at its first proposal batch, one rbc / binary / commit sample
    per (replica, instance) started and committed.  A replica that commits
    an instance only after the membership change waits for it from the first
    start: that wait is the commit phase (up to 16.2 s)."""
    probe = obs.Probe.at_level("metrics")
    with obs.activate(probe):
        run_system(GOLDEN_SPEC)
    histograms = probe.metrics.snapshot()["histograms"]
    phases = {
        phase: histograms[f"zlb.phase.{phase}_s"]
        for phase in ("mempool", "rbc", "binary", "commit")
    }
    assert {phase: row["count"] for phase, row in phases.items()} == {
        "mempool": 96, "rbc": 18, "binary": 18, "commit": 18,
    }
    assert {phase: round(row["max"], 4) for phase, row in phases.items()} == {
        "mempool": 17.151, "rbc": 0.2847, "binary": 0.8219, "commit": 16.1735,
    }
    assert "asmr.instance_decide_s" not in histograms
    assert dominant_phase([{"histograms": histograms}]) == "commit"
