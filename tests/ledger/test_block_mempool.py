"""Unit tests for blocks, the genesis block and the mempool."""

import pytest

from repro.ledger.block import GENESIS_PARENT, Block, make_genesis_block
from repro.ledger.mempool import Mempool
from repro.ledger.workload import TransferWorkload


@pytest.fixture
def workload():
    return TransferWorkload(num_accounts=4, seed=1)


class TestGenesisBlock:
    def test_allocations_become_utxos(self):
        block, utxos = make_genesis_block([("a", 100), ("b", 50)])
        assert block.index == 0
        assert block.parent_hash == GENESIS_PARENT
        assert {(u.account, u.amount) for u in utxos} == {("a", 100), ("b", 50)}

    def test_empty_genesis(self):
        block, utxos = make_genesis_block([])
        assert utxos == []
        assert block.transactions == ()


class TestBlock:
    def test_hash_changes_with_content(self, workload):
        txs = workload.batch(3)
        block_a = Block(index=1, parent_hash="p", transactions=tuple(txs[:2]))
        block_b = Block(index=1, parent_hash="p", transactions=tuple(txs))
        assert block_a.block_hash != block_b.block_hash
        assert block_a.conflicts_with(block_b)

    def test_same_content_same_hash(self, workload):
        txs = tuple(workload.batch(2))
        assert (
            Block(index=1, parent_hash="p", transactions=txs).block_hash
            == Block(index=1, parent_hash="p", transactions=txs).block_hash
        )

    def test_different_index_not_conflicting(self, workload):
        txs = tuple(workload.batch(1))
        block_a = Block(index=1, parent_hash="p", transactions=txs)
        block_b = Block(index=2, parent_hash="p", transactions=txs)
        assert not block_a.conflicts_with(block_b)

    def test_total_output_value(self, workload):
        txs = tuple(workload.batch(3))
        block = Block(index=1, parent_hash="p", transactions=txs)
        assert block.total_output_value() == sum(t.total_output() for t in txs)

    def test_tx_ids_order(self, workload):
        txs = tuple(workload.batch(3))
        block = Block(index=1, parent_hash="p", transactions=txs)
        assert block.tx_ids() == [t.tx_id for t in txs]


class TestMempool:
    def test_add_and_batch(self, workload):
        pool = Mempool()
        txs = workload.batch(5)
        assert pool.add_all(txs) == 5
        assert len(pool) == 5
        batch = pool.take_batch(3)
        assert [t.tx_id for t in batch] == [t.tx_id for t in txs[:3]]
        assert len(pool) == 2

    def test_duplicates_rejected(self, workload):
        pool = Mempool()
        tx = workload.next_transaction()
        assert pool.add(tx)
        assert not pool.add(tx)
        assert len(pool) == 1

    def test_max_size(self, workload):
        pool = Mempool(max_size=2)
        txs = workload.batch(4)
        assert pool.add_all(txs) == 2
        assert pool.dropped == 2

    def test_peek_does_not_remove(self, workload):
        pool = Mempool()
        pool.add_all(workload.batch(3))
        assert len(pool.peek_batch(2)) == 2
        assert len(pool) == 3

    def test_remove_decided(self, workload):
        pool = Mempool()
        txs = workload.batch(4)
        pool.add_all(txs)
        removed = pool.remove_decided([txs[0].tx_id, txs[2].tx_id, "unknown"])
        assert removed == 2
        assert txs[1].tx_id in pool

    def test_clear(self, workload):
        pool = Mempool()
        pool.add_all(workload.batch(3))
        pool.clear()
        assert len(pool) == 0
        assert pool.pending_bytes == 0

    def test_duplicate_counter_distinct_from_drops(self, workload):
        pool = Mempool(max_size=2)
        txs = workload.batch(3)
        pool.add_all(txs)
        assert pool.dropped == 1
        assert not pool.add(txs[0])  # already pending: a duplicate, not a drop
        assert pool.duplicates == 1
        assert pool.dropped == 1

    def test_peek_batch_edge_sizes(self, workload):
        pool = Mempool()
        txs = workload.batch(3)
        pool.add_all(txs)
        assert pool.peek_batch(0) == []
        assert pool.peek_batch(-1) == []
        assert [t.tx_id for t in pool.peek_batch(10)] == [t.tx_id for t in txs]

    def test_take_batch_larger_than_pool_empties_it(self, workload):
        pool = Mempool()
        txs = workload.batch(2)
        pool.add_all(txs)
        batch = pool.take_batch(5)
        assert [t.tx_id for t in batch] == [t.tx_id for t in txs]
        assert len(pool) == 0 and pool.pending_bytes == 0

    def test_pending_bytes_tracks_mutations(self, workload):
        pool = Mempool()
        txs = workload.batch(4)
        pool.add_all(txs)
        assert pool.pending_bytes == sum(t.wire_size() for t in txs)
        pool.take_batch(2)
        assert pool.pending_bytes == sum(t.wire_size() for t in txs[2:])
        pool.remove_decided([txs[2].tx_id])
        assert pool.pending_bytes == txs[3].wire_size()

    def test_rejected_transactions_do_not_count_bytes(self, workload):
        pool = Mempool(max_size=1)
        txs = workload.batch(2)
        pool.add_all(txs)
        pool.add(txs[0])  # duplicate
        assert pool.pending_bytes == txs[0].wire_size()

    def test_hook_fires_on_every_mutation(self, workload):
        pool = Mempool()
        seen = []
        pool.hook = lambda p: seen.append((len(p), p.pending_bytes))
        txs = workload.batch(2)
        pool.add(txs[0])
        pool.add(txs[0])  # rejected duplicate: no mutation, no callback
        pool.add(txs[1])
        pool.take_batch(1)
        pool.take_batch(5)
        pool.take_batch(5)  # empty take: no mutation, no callback
        pool.clear()  # already empty: no mutation, no callback
        assert len(seen) == 4
        assert seen[0] == (1, txs[0].wire_size())
        assert seen[-1] == (0, 0)

    def test_hook_fires_on_non_empty_clear(self, workload):
        pool = Mempool()
        pool.add_all(workload.batch(2))
        seen = []
        pool.hook = lambda p: seen.append((len(p), p.pending_bytes))
        pool.clear()
        assert seen == [(0, 0)]


class TestTransferWorkload:
    def test_transactions_are_valid(self, workload):
        for tx in workload.batch(10):
            tx.verify()

    def test_no_conflicts_within_stream(self, workload):
        txs = workload.batch(20)
        spent = set()
        for tx in txs:
            ids = {i.utxo_id for i in tx.inputs}
            assert not (ids & spent)
            spent |= ids

    def test_deterministic_given_seed(self):
        a = TransferWorkload(num_accounts=4, seed=3).batch(5)
        b = TransferWorkload(num_accounts=4, seed=3).batch(5)
        assert [t.tx_id for t in a] == [t.tx_id for t in b]

    def test_requires_two_accounts(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TransferWorkload(num_accounts=1)
