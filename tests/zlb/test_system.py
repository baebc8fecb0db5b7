"""End-to-end tests of the ZLB system (fault-free runs)."""

import cProfile
import os
import textwrap

import pytest

import repro
from repro.common.config import FaultConfig
from repro.common.errors import ConfigurationError
from repro.ledger.utxo import UTXO
from repro.obs import core as obs_core
from repro.scenarios import ScenarioSpec, registry, system_for
from repro.scenarios.cli import main
from repro.zlb.system import AttackSpec, ZLBSystem, deploy

from tests.scenarios.test_fig4_golden import GOLDEN_SPEC


@pytest.fixture(scope="module")
def fault_free_result():
    system = ZLBSystem.create(
        FaultConfig(n=4),
        seed=3,
        delay="aws",
        workload_transactions=80,
        batch_size=10,
    )
    return system, system.run_instances(2)


class TestFaultFreeRun:
    def test_all_honest_decide(self, fault_free_result):
        _, result = fault_free_result
        for detail in result.per_replica.values():
            assert detail["decided_instances"] == [0, 1]

    def test_no_disagreement_no_recovery(self, fault_free_result):
        _, result = fault_free_result
        assert result.disagreements == 0
        assert not result.recovered
        assert result.detect_time is None

    def test_transactions_committed(self, fault_free_result):
        _, result = fault_free_result
        assert result.committed_transactions > 0
        assert result.throughput_tx_per_sec > 0

    def test_chains_agree(self, fault_free_result):
        system, result = fault_free_result
        heights = {
            detail["chain"]["height"] for detail in result.per_replica.values()
        }
        assert len(heights) == 1
        heads = {
            replica.blockchain.record.head_hash
            for replica in system.honest_replicas()
        }
        assert len(heads) == 1

    def test_no_deposit_shortfall(self, fault_free_result):
        _, result = fault_free_result
        assert result.deposit_shortfall == 0

    def test_metrics_conversion(self, fault_free_result):
        _, result = fault_free_result
        row = result.to_row()
        assert row["n"] == 4
        assert row["committed_transactions"] == result.committed_transactions


class TestSystemConstruction:
    def test_benign_replicas_do_not_block_progress(self):
        system = ZLBSystem.create(
            FaultConfig(n=7, deceitful=0, benign=2),
            seed=4,
            delay="aws",
            workload_transactions=40,
            batch_size=10,
        )
        result = system.run_instances(1)
        honest_decided = [
            detail["decided_instances"]
            for detail in result.per_replica.values()
            if detail["fault"] == "honest"
        ]
        assert all(decided == [0] for decided in honest_decided)

    def test_attack_spec_delay_resolution(self):
        spec = AttackSpec(kind="binary", cross_partition_delay="500ms")
        assert spec.resolve_cross_delay().mean_delay() == pytest.approx(0.5)

    def test_pool_replicas_created_standby(self):
        system = ZLBSystem.create(
            FaultConfig(n=4), seed=5, workload_transactions=0, pool_size=3
        )
        standby = [r for r in system.replicas.values() if r.standby]
        assert len(standby) == 3

    def test_empty_batches_are_refused(self):
        with pytest.raises(ConfigurationError):
            deploy(FaultConfig(n=4), batch_size=0)
        with pytest.raises(ConfigurationError):
            system_for(ScenarioSpec(family="quickstart", n=4, batch_size=0))


def _bare_system():
    return ZLBSystem.create(
        FaultConfig(n=4), seed=3, delay="aws", workload_transactions=40, batch_size=10
    )


def _forged_system():
    """A bare system whose honest replica 0 holds a coin no transaction made."""
    system = _bare_system()
    system.replicas[0].blockchain.record.utxos.add(
        UTXO(utxo_id="forged:0", account="mallory", amount=777)
    )
    return system


class TestInvariantsInBareRuns:
    """No probe is active: the deployment's own monitors check every run."""

    @pytest.fixture(autouse=True)
    def bare(self):
        # Shield the suite's flight-recorder probe: these runs are bare.
        with obs_core.activate(None):
            yield

    def test_a_forged_coin_trips_supply_conservation_and_does_not_leak(self):
        assert obs_core.current() is None
        forged = _forged_system().run_instances(1)
        # The coin is minted, and replica 0's ledger is not its peers'.
        violation, diverged = forged.violations
        assert violation.startswith("[supply-conservation]")
        assert "replica=0:" in violation and "minted=777" in violation
        assert diverged.startswith("[convergence]")
        assert "replicas_by_state=[[0], [1, 2, 3]]" in diverged
        assert forged.to_row()["violations"] == forged.violations
        # A second deployment in the same process starts from clean monitors.
        clean = _bare_system().run_instances(1)
        assert clean.violations == [] and clean.to_row()["violations"] == []

    def test_scenarios_run_exits_1_when_a_row_carries_a_violation(
        self, monkeypatch, capsys
    ):
        def forged_cell(spec):
            return _forged_system().run_instances(1).to_row()

        monkeypatch.setattr(registry, "run_spec", forged_cell)
        assert main(["run", "quickstart", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "INVARIANT VIOLATION quickstart" in err
        assert "[supply-conservation]" in err


def _stalled_system():
    """A binary attack whose instance 0 no honest member decides: it commits
    nothing and breaks no invariant, and the simulator's queue drains."""
    return ZLBSystem.create(
        FaultConfig(9, 2, 2),
        seed=1,
        attack=AttackSpec(kind="binary", cross_partition_delay="1000ms"),
        workload_transactions=108,
        batch_size=10,
    )


class TestLiveness:
    """A run that decides nothing is reported, apart from the violations."""

    def test_an_undecided_instance_is_reported_as_stalled(self):
        system = _stalled_system()
        result = system.run_instances(2, until=300)
        assert result.committed_transactions == 0 and result.violations == []
        assert result.stalled_instances == 1 == result.to_row()["stalled_instances"]
        (stall,) = system.deployment.monitors.liveness
        assert stall.detail == {"instance": 0, "replicas": [4, 5, 6, 7, 8]}
        assert _bare_system().run_instances(1).stalled_instances == 0

    def test_scenarios_run_prints_a_stalled_row_and_the_claim_fails(
        self, monkeypatch, capsys
    ):
        def stalled_cell(spec):
            return _stalled_system().run_instances(2, until=300).to_row()

        monkeypatch.setattr(registry, "run_spec", stalled_cell)
        assert main(["run", "quickstart", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "STALLED quickstart" in captured.err
        assert "claim quickstart / every cell is live: FAILED" in captured.out


def _benign_fingerprint():
    system = ZLBSystem.create(
        FaultConfig(n=7), seed=2, delay="aws", workload_transactions=60, batch_size=10
    )
    result = system.run_instances(2)
    return (
        system.simulator.events_processed,
        result.messages_sent,
        result.messages_delivered,
        result.committed_transactions,
        result.simulated_time,
    )


def _fingerprints():
    """The benign fingerprint, then the rows of the first small crash-recovery
    cell and of the lossy jitter-stress cell (without its wall clock)."""
    crash = registry.expand("crash-recovery")[0]
    (lossy,) = [s for s in registry.expand("jitter-stress") if s.delay == "lossy"]
    rows = [registry.run_spec(spec) for spec in (crash, lossy)]
    del rows[1]["wall_clock_s"]
    return _benign_fingerprint(), rows


def test_a_cell_after_another_in_one_process_equals_a_fresh_one():
    """Signing and verifying read memos, and hosts intern topics, that belong
    to the deployment: an attack cell run in between must not move a later
    cell's schedule.  Nor may cut replicas or loss draws: they live on each
    cell's simulator, not in the process."""
    before = _fingerprints()
    attack = ZLBSystem.create(
        FaultConfig.paper_attack(9),
        seed=1,
        delay="aws",
        attack=AttackSpec(kind="rbbcast", cross_partition_delay="1000ms"),
        workload_transactions=12 * 9,
        batch_size=10,
        max_time=300.0,
    )
    assert attack.run_instances(1, until=300.0).disagreements
    assert attack.deployment.keys.registry.vote_digests
    after_attack = _fingerprints()
    assert after_attack[1][1]["undelivered_messages"] > 0
    assert after_attack == before


# -- a deployment's work is its own --------------------------------------------------

CRASH_SPEC = registry.expand("crash-recovery")[0]


def _step(system, spec, profile, count):
    profile.enable()
    try:
        return system.run_instances(count, until=spec.max_time)
    finally:
        profile.disable()


def _calls(profile):
    """The calls of the program's own functions: the process around them
    (the stdlib logger's level cache, the test harness) makes calls of its
    own that depend on what ran before."""
    return sum(
        entry.callcount
        for entry in profile.getstats()
        if f"{os.sep}repro{os.sep}" in getattr(entry.code, "co_filename", "")
    )


def _solo(spec, steps):
    """Deploy ``spec`` and run it ``steps`` (instances per step): the last
    row and the calls its steps made."""
    system, profile = system_for(spec), cProfile.Profile()
    for count in steps:
        result = _step(system, spec, profile, count)
    return result.to_row(), _calls(profile)


def _golden_around_a_crash_recovery_cell():
    first = _solo(GOLDEN_SPEC, [GOLDEN_SPEC.instances])
    registry.run_spec(CRASH_SPEC)
    return [(_solo(GOLDEN_SPEC, [GOLDEN_SPEC.instances]), first)]


def _two_live_deployments_in_turn():
    specs = (GOLDEN_SPEC, CRASH_SPEC)
    systems = [system_for(spec) for spec in specs]
    profiles = [cProfile.Profile() for _ in specs]
    results = [None] * len(specs)
    for _ in range(2):
        for index, spec in enumerate(specs):
            results[index] = _step(systems[index], spec, profiles[index], 1)
    return [
        ((result.to_row(), _calls(profile)), _solo(spec, [1, 1]))
        for spec, result, profile in zip(specs, results, profiles)
    ]


@pytest.mark.parametrize(
    "schedule", [_golden_around_a_crash_recovery_cell, _two_live_deployments_in_turn]
)
def test_a_deployments_work_does_not_depend_on_what_ran_before_it(schedule):
    """The same row and the same number of calls as the deployment run on its
    own: the golden cell after a crash-recovery cell (while the memos and the
    topic table were the process's: 280 374 calls after 281 883), and the
    golden and crash-recovery deployments live together, stepped in turn
    (then 251 230 calls where the crash-recovery one alone made 250 975).
    The runs are bare: a probe is shared by every deployment it watches."""
    with obs_core.activate(None):
        pairs = schedule()
    for observed, solo in pairs:
        assert observed == solo


def test_package_docstring_quickstart_runs(capsys):
    """The snippet in ``repro.__doc__`` is the first code a reader copies."""
    snippet = repro.__doc__.split("Quickstart::")[1].split("See README.md")[0]
    exec(textwrap.dedent(snippet), {})
    assert "'committed_transactions': 200" in capsys.readouterr().out
