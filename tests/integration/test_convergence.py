"""Integration: honest replicas end on one ledger.

A replica that misses an instance — it was cut off while the others
decided it, lost a message of it, or aborted it for a membership change after
its peers had decided it — fetches the instance's decision record from
``t + 1`` members, verifies it against the instance's committee and commits
it in instance order, as if its own consensus had decided it.  Every run then
checks that the honest members that are up hold one ledger state
(``BlockchainRecord.state_digest``): the ``convergence`` monitor.
"""

import pytest

from repro.common.config import FaultConfig
from repro.ledger.utxo import UTXO
from repro.obs import core as obs_core
from repro.scenarios import ScenarioSpec, library, registry, system_for
from repro.zlb.blockchain_manager import replica_deposit_account
from repro.zlb.system import ZLBSystem

from tests.consensus.harness import of_kind, tap


@pytest.fixture(autouse=True)
def bare():
    # These runs are bare: what the monitors see needs no probe.
    with obs_core.activate(None):
        yield


def _run_cell(spec, monkeypatch):
    """Run ``spec``'s cell and return its row and the system it deployed."""
    systems = []
    deploy = library.system_for

    def keep(cell_spec):
        systems.append(deploy(cell_spec))
        return systems[-1]

    monkeypatch.setattr(library, "system_for", keep)
    row = registry.run_spec(spec)
    (system,) = systems
    return row, system


def _assert_one_ledger(system):
    """Every honest member of the initial committee holds the same state
    and decided the same instances."""
    honest = [
        replica
        for replica_id, replica in system.replicas.items()
        if replica_id in system.deployment.committee and replica in system.honest_replicas()
    ]
    assert len(honest) >= 2
    assert len({replica.blockchain.record.state_digest() for replica in honest}) == 1
    assert len({tuple(replica.decided_instances()) for replica in honest}) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("crashes", [1, 2])
def test_crashed_replicas_fill_what_they_missed(crashes, seed, monkeypatch):
    spec = ScenarioSpec(
        family="crash-recovery",
        n=7,
        seed=seed,
        workload_transactions=120,
        batch_size=20,
        instances=2,
        max_time=120.0,
        params=(("crashes", crashes),),
    )
    row, system = _run_cell(spec, monkeypatch)
    assert row["violations"] == []
    assert row["decided_instances"] == 6
    _assert_one_ledger(system)
    for replica_id in row["crashed_replicas"]:
        assert system.replicas[replica_id].history.next_commit == 6


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_a_lossy_network_leaves_no_gap(seed, monkeypatch):
    """At seeds 1, 2 and 4 a member's last instance waits for a proposal
    whose broadcast lost messages: it fetches the decision ``PROPOSAL_WAIT_S``
    after a peer's CONFIRM came, or nothing ever decides it there."""
    spec = ScenarioSpec(
        family="jitter-stress",
        n=7,
        seed=seed,
        delay="lossy",
        workload_transactions=120,
        batch_size=20,
        instances=3,
        max_time=300.0,
    )
    row, system = _run_cell(spec, monkeypatch)
    assert row["violations"] == []
    _assert_one_ledger(system)


@pytest.mark.parametrize(
    "attack, cross", [("binary", "1000ms"), ("rbbcast", "1000ms"), ("binary", "500ms")]
)
def test_the_initial_honest_members_converge_after_an_attack(attack, cross):
    """fig4 cells at n=9.  Members that aborted an instance their peers had
    decided fetch it once the membership change completes (without that,
    in the golden binary 1000 ms cell, replica 5 decided nothing and
    replica 7 only instance 0).  In the binary 500 ms cell three members finish the change
    after the joiners started the restarted instance: its traffic waits for
    them instead of being dropped, or that instance stalls there."""
    spec = ScenarioSpec(family="fig4", n=9, attack=attack, cross_partition_delay=cross)
    system = system_for(spec)
    result = system.run_instances(spec.instances, until=spec.max_time)
    assert result.violations == [] and result.recovered
    _assert_one_ledger(system)


def test_a_fault_free_cell_fetches_nothing():
    system = ZLBSystem.create(
        FaultConfig(n=7), seed=1, delay="aws", workload_transactions=120, batch_size=20
    )
    seen = tap(system.replicas.values())
    result = system.run_instances(3)
    assert result.violations == []
    assert of_kind(seen, "PULL") == [] and of_kind(seen, "PROPOSALS") == []
    assert all(replica.history._fetches == {} for replica in system.replicas.values())
    _assert_one_ledger(system)


def test_a_coin_swapped_into_one_honest_ledger_trips_convergence():
    """The positive control: replica 2 trades a genuine coin (a deposit, which
    no transfer spends) for a forged one of the same value — no value is
    minted and nothing fails to execute, only the states differ."""
    system = ZLBSystem.create(
        FaultConfig(n=4), seed=3, delay="aws", workload_transactions=40, batch_size=10
    )
    utxos = system.replicas[2].blockchain.record.utxos
    genuine = next(u for u in utxos if u.account == replica_deposit_account(3))
    utxos.remove(genuine.utxo_id)
    utxos.add(UTXO(utxo_id="forged:0", account=genuine.account, amount=genuine.amount))
    (violation,) = system.run_instances(1).violations
    assert violation.startswith("[convergence]")
    assert "replicas_by_state=[[0, 1, 3], [2]]" in violation


def test_a_crashed_replica_is_checked_once_it_is_back():
    """Mid-outage a cut member is not up: it is not compared."""
    system = ZLBSystem.create(
        FaultConfig(n=4), seed=3, delay="aws", workload_transactions=40, batch_size=10
    )
    assert system.run_instances(1).violations == []
    system.simulator.faults.cut(3)
    assert system.run_instances(1).violations == []
    assert system.replicas[3].decided_instances() == [0]
    system.simulator.faults.heal(3)
    assert system.run_instances(1).violations == []
    assert system.replicas[3].decided_instances() == [0, 1, 2]
