"""End-to-end tests of the ZLB system (fault-free runs)."""

import textwrap

import pytest

import repro
from repro.common.config import FaultConfig
from repro.common.errors import ConfigurationError
from repro.consensus.certificates import _VOTE_DIGESTS, _clear_memos
from repro.scenarios import ScenarioSpec, system_for
from repro.zlb.system import AttackSpec, ZLBSystem, deploy


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


def test_a_cell_after_another_in_one_process_equals_a_fresh_one():
    """Signing and verifying read process-wide memos (``_VOTE_DIGESTS``,
    ``_CERT_VALIDITY``): whatever an earlier cell left in them must not move a
    later cell's schedule."""
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
    assert _VOTE_DIGESTS
    after_attack = _benign_fingerprint()
    _clear_memos()
    assert _benign_fingerprint() == after_attack


def test_package_docstring_quickstart_runs(capsys):
    """The snippet in ``repro.__doc__`` is the first code a reader copies."""
    snippet = repro.__doc__.split("Quickstart::")[1].split("See README.md")[0]
    exec(textwrap.dedent(snippet), {})
    assert "'committed_transactions': 200" in capsys.readouterr().out
