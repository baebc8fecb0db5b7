"""Tests for the HotStuff baseline and for Red Belly, the ZLB deployment
with confirmation off."""

from typing import Dict

import pytest

from repro import obs
from repro.baselines.hotstuff import HotStuffCluster
from repro.common.config import FaultConfig
from repro.zlb.system import ZLBSystem


class TestHotStuff:
    def test_commits_are_prefix_consistent(self):
        cluster = HotStuffCluster(4, seed=1)
        cluster.submit_payloads([{"batch": i} for i in range(8)])
        cluster.run_views(8)
        committed = cluster.committed_views()
        reference = committed[0]
        assert reference, "at least one view must commit"
        for other in committed[1:]:
            shared = min(len(reference), len(other))
            assert reference[:shared] == other[:shared]

    def test_three_chain_rule_lags_by_two_views(self):
        cluster = HotStuffCluster(4, seed=2)
        cluster.submit_payloads([{"batch": i} for i in range(6)])
        cluster.run_views(6)
        committed = cluster.committed_views()[0]
        # With 6 views at most 4 can head a completed three-chain.
        assert len(committed) <= 4
        assert committed == sorted(committed)

    def test_one_proposal_per_view(self):
        cluster = HotStuffCluster(4, seed=3)
        cluster.submit_payloads([{"batch": i} for i in range(4)])
        cluster.run_views(4)
        replica = cluster.replicas[0]
        assert all(view in replica.blocks for view in replica.committed_views)

    def test_leader_rotation(self):
        cluster = HotStuffCluster(4, seed=4)
        replica = cluster.replicas[0]
        assert [replica.leader_of(v) for v in range(4)] == [0, 1, 2, 3]
        assert replica.leader_of(4) == 0


def _red_belly(n: int, transactions: int, batch_size: int, probe=None) -> ZLBSystem:
    """Red Belly: the ZLB deployment with confirmation off and no pool."""
    return ZLBSystem.create(
        FaultConfig(n=n),
        seed=1,
        delay="aws",
        workload_transactions=transactions,
        batch_size=batch_size,
        confirmation=False,
        pool_size=0,
        probe=probe,
    )


def _sent_by_group(snapshot) -> Dict[str, int]:
    sent: Dict[str, int] = {}
    for key, value in snapshot["counters"].items():
        if key.startswith("net.messages_sent"):
            group = key.split("protocol=")[1].split(",")[0].rstrip("}")
            sent[group] = sent.get(group, 0) + value
    return sent


class TestRedBelly:
    # Every replica commits the whole workload in two instances (916 and
    # 4 854 messages, 0.6287 and 0.6511 s while a benign slot took two binary
    # rounds).
    @pytest.mark.parametrize(
        "n, transactions, batch_size, messages, simulated",
        [
            (4, 40, 10, 732, 0.6175088010736863),
            (7, 120, 20, 3_691, 0.6187539271287275),
        ],
    )
    def test_schedule_is_pinned(
        self, n, transactions, batch_size, messages, simulated
    ):
        system = _red_belly(n, transactions, batch_size)
        result = system.run_instances(2)
        chains = [replica.blockchain for replica in system.replicas.values()]
        assert [chain.transactions_committed for chain in chains] == [transactions] * n
        assert [chain.chain_height() for chain in chains] == [2] * n
        assert result.messages_sent == messages
        assert result.simulated_time == simulated

    def test_no_membership_change_machinery(self):
        probe = obs.Probe(metrics=obs.TelemetryRegistry())
        red_belly = _red_belly(4, 40, 10, probe=probe)
        result = red_belly.run_instances(2)
        sent = _sent_by_group(result.telemetry)
        assert sent and "asmr:confirm" not in sent
        assert sum(sent.values()) == result.messages_sent
        assert all(r.membership_outcomes == [] for r in red_belly.replicas.values())
        # The same deployment with confirmation on does confirm.
        zlb = ZLBSystem.create(
            FaultConfig(n=4),
            seed=1,
            delay="aws",
            workload_transactions=40,
            batch_size=10,
            pool_size=0,
            probe=obs.Probe(metrics=obs.TelemetryRegistry()),
        )
        assert _sent_by_group(zlb.run_instances(2).telemetry)["asmr:confirm"] > 0
