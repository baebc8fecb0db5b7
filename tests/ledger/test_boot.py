"""What booting a deployment builds, and how many canonical encodes it takes.

A deployment's genesis extends its workload's genesis (allocation ``i`` has
nonce ``i``, so the workload's transactions and UTXOs are the first ones of
the deployment's), and a generated transfer is signed under its memoised id.
Both are pure reuse: every id, UTXO id and block hash equals the one built
from scratch, and the pins below were computed before either reuse existed.
"""

import cProfile
import pstats

import pytest

from repro.cluster.fixture import ClusterSpec, build_node
from repro.common.config import FaultConfig
from repro.common.errors import LedgerError
from repro.ledger.block import make_genesis_block
from repro.ledger.workload import TransferWorkload
from repro.zlb.blockchain_manager import replica_deposit_account
from repro.zlb.system import AttackSpec, ZLBSystem

#: ``zlbbench``'s counted ``cluster4-paced`` fixture at seed 1.
PACED = dict(n=4, transactions=540, accounts=16, batch_size=50, seed=1)


def _allocations(block):
    return [(tx.outputs[0].account, tx.outputs[0].amount) for tx in block.transactions]


def _assert_same_genesis(extended, scratch):
    (block, utxos), (fresh_block, fresh_utxos) = extended, scratch
    assert block.block_hash == fresh_block.block_hash
    assert [u.utxo_id for u in utxos] == [u.utxo_id for u in fresh_utxos]
    assert block.tx_ids() == fresh_block.tx_ids()
    assert utxos == fresh_utxos


class TestGenesisExtension:
    def test_workload_plus_deposits_equals_a_scratch_build(self):
        workload = TransferWorkload(num_accounts=4, seed=3, utxos_per_account=5)
        allocations = list(workload.genesis_allocations) + [
            (replica_deposit_account(member), 25_000) for member in range(4)
        ]
        extended = make_genesis_block(allocations, prefix=workload.genesis)
        _assert_same_genesis(extended, make_genesis_block(allocations))
        # The prefix is reused, not rebuilt.
        reused = zip(extended[0].transactions, workload.genesis[0].transactions)
        assert all(mine is theirs for mine, theirs in reused)

    def test_attack_cell_genesis_equals_a_scratch_build(self):
        system = ZLBSystem.create(
            FaultConfig.paper_attack(9),
            seed=1,
            attack=AttackSpec(kind="rbbcast"),
            workload_transactions=0,
        )
        record = system.replicas[0].blockchain.record
        block = record.blocks[0]
        allocations = _allocations(block)
        # Workload, then a deposit per committee and pool member, then one
        # funded attacker per deceitful slot.
        assert len(allocations) == len(system.workload.genesis_allocations) + 18 + 4
        scratch_block, scratch_utxos = make_genesis_block(allocations)
        assert block.block_hash == scratch_block.block_hash
        assert block.tx_ids() == scratch_block.tx_ids()
        assert [u.utxo_id for u in record.utxos] == [u.utxo_id for u in scratch_utxos]

    def test_a_prefix_that_differs_from_the_allocations_raises(self):
        workload = TransferWorkload(num_accounts=2, seed=0, utxos_per_account=3)
        allocations = list(workload.genesis_allocations)
        account, amount = allocations[4]
        for wrong in ((account, amount + 1), ("someone-else", amount)):
            changed = allocations[:4] + [wrong] + allocations[5:]
            with pytest.raises(LedgerError):
                make_genesis_block(changed, prefix=workload.genesis)
        with pytest.raises(LedgerError):
            make_genesis_block(allocations[:-1], prefix=workload.genesis)

    def test_build_node_is_pinned(self, tmp_path):
        """Genesis hash and share ends of replica 2, as built from scratch."""
        node = build_node(ClusterSpec(socket_dir=str(tmp_path), **PACED), 2)
        assert node.replica.blockchain.record.blocks[0].block_hash == (
            "658d194a0b9004a1a6c46c3406f155dcc940f9ac7c69013014401d32bc9b16d8"
        )
        assert len(node.share) == 135
        assert node.share[0].tx_id == (
            "ad8d2e16a126165b22423c294317708423e8a8762aacf4750a6c0cc884bb6175"
        )
        assert node.share[-1].tx_id == (
            "ab8a121a3a568fd361ad1d790c6b8d0685ab7f169d8f46c743304a8e5d2ccb95"
        )


def _canonical_encodes(build) -> int:
    """``canonical_bytes`` calls ``build()`` makes (nested encodes excluded)."""
    profile = cProfile.Profile()
    profile.runcall(build)
    for (filename, _, name), row in pstats.Stats(profile).stats.items():
        if name == "canonical_bytes" and filename.endswith("hashing.py"):
            return row[1]
    return 0


class TestBootEncodeBudget:
    """One canonical encode per object a deployment boots with — a count, so
    the gate cannot flake the way a boot time on a shared host does."""

    def test_build_node(self, tmp_path):
        spec = ClusterSpec(socket_dir=str(tmp_path), **PACED)
        # 2 048 workload genesis outputs + 4 deposits + 540 transfers (signed
        # under their id) + 16 wallet addresses; twice that before the reuse.
        assert _canonical_encodes(lambda: build_node(spec, 0)) == 2_608

    def test_benign_n20_cell(self):
        # 2 048 genesis outputs + 40 deposits (committee and pool) + 16
        # wallet addresses + 240 transfers, each then verified once at
        # admission (its address binding: the signature is checked against
        # the id).  2 824 while a verification hashed the body again.
        encodes = _canonical_encodes(
            lambda: ZLBSystem.create(
                FaultConfig(n=20), seed=1, workload_transactions=240, batch_size=10
            )
        )
        assert encodes == 2_584
