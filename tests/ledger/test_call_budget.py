"""What validating and committing a decided batch costs, in calls.

Every replica validates every proposal against its UTXO view, then screens
and applies every decided transfer: this is the per-transfer path behind
the benchmark's ``kcalls_per_tx``.  The count is the interpreter's, under
``cProfile``, so the gate cannot flake the way a wall-clock bound on a
shared host does; it fails when a transfer crosses the ledger with more
calls than it needs.
"""

import cProfile

from repro.consensus.sbc import SBCDecision
from repro.ledger.workload import TransferWorkload
from repro.zlb.blockchain_manager import BlockchainManager

#: Ten proposals of ten transfers each, decided together.
SLOTS, PER_SLOT = 10, 10


def _decided_batch():
    workload = TransferWorkload(num_accounts=16, seed=1, utxos_per_account=16)
    transfers = workload.batch(SLOTS * PER_SLOT)
    # Signatures were checked at admission; the budget is the ledger's.
    assert all(transfer.is_valid_cached() for transfer in transfers)
    proposals = {
        slot: transfers[slot * PER_SLOT : (slot + 1) * PER_SLOT] for slot in range(SLOTS)
    }
    manager = BlockchainManager(replica_id=0, genesis=workload.genesis)
    manager.record.head_hash  # the genesis block's hash, computed once
    decision = SBCDecision(
        instance=0,
        bitmask={slot: 1 for slot in proposals},
        proposals=proposals,
        binary_certificates={},
        justification_votes=[],
        decided_at=1.0,
    )
    return manager, proposals, decision


def _calls(manager, proposals, decision) -> int:
    profile = cProfile.Profile()
    profile.enable()
    verdicts = [manager.validate_proposal(slot, payload) for slot, payload in proposals.items()]
    block = manager.commit_decision(0, decision)
    profile.disable()
    assert all(verdicts)
    assert len(block.transactions) == SLOTS * PER_SLOT
    # The profiler's own entries: ``pstats`` keys functions by file, line and
    # name, and every dataclass ``__init__`` is ``<string>:2``, so its total
    # would keep one of them.
    return sum(entry.callcount for entry in profile.getstats())


def test_validating_and_committing_a_100_transfer_decision():
    # 11 862 while a commit screened each transfer on an overlay, applied it
    # again to the table, read the id through a property and hashed each
    # Merkle leaf and pair through the generic encoder.
    assert _calls(*_decided_batch()) == 1_209
