"""The commit's one screening loop, differentially.

``append_block(batch)`` screens each transaction against the live UTXO table
and applies it in the same walk; ``filter_for_append`` runs that loop on a
throwaway overlay, and ``append_block(accepted, validate=False)`` then applies
what it accepted.  The two routes must end on the same record — counters,
accepted order, block, table, journal, deposit — for any batch, hostile ones
included.  The batches are drawn from a small funded genesis: valid
transfers, chains spending outputs made earlier in the batch, exact
duplicates, double spends, phantom inputs, inputs with the wrong amount or
account, unsigned transfers, malformed shapes and payments to a punished
account.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger.block import make_genesis_block
from repro.ledger.merge import AppendReport, BlockchainRecord
from repro.ledger.transaction import Transaction, TxInput, TxOutput, build_transfer
from repro.ledger.wallet import Wallet
from repro.zlb.blockchain_manager import BlockchainManager

WALLETS = [Wallet(f"screen-{index}") for index in range(4)]
PUNISHED = Wallet("screen-punished")
ALLOCATIONS = [(wallet.address, 40 + 10 * slot) for wallet in WALLETS for slot in range(3)]
ALLOCATIONS.append((PUNISHED.address, 70))
GENESIS = make_genesis_block(ALLOCATIONS)
KINDS = (
    "spend",
    "spend",
    "spend",
    "duplicate",
    "phantom",
    "wrong-amount",
    "wrong-account",
    "unsigned",
    "zero-amount",
    "repeated-input",
    "to-punished",
)


def _record() -> BlockchainRecord:
    """A funded record one block in: two genesis outputs are spent, so a
    batch can double-spend them (conflicting, not phantom), and the punished
    account's coins are seized."""
    record = BlockchainRecord(initial_deposit=1_000, genesis=GENESIS)
    utxos = list(record.utxos)
    record.append_block(
        [
            build_transfer(WALLETS[0], [utxos[0].as_input()], [(WALLETS[1].address, 40)]),
            build_transfer(WALLETS[1], [utxos[3].as_input()], [(WALLETS[2].address, 15)]),
        ]
    )
    record.punish_account(PUNISHED.address)
    return record


def _owner(account):
    return next(wallet for wallet in WALLETS if wallet.address == account)


def _batch(moves):
    """Interpret drawn moves as transactions over every output the batch
    may know of: genesis (spent or not) and earlier transactions' outputs."""
    pool = [(utxo.as_input(), _owner(utxo.account)) for utxo in GENESIS[1][:-1]]
    batch = []
    for nonce, (kind, pick, to, amount) in enumerate(moves):
        tx_input, wallet = pool[pick % len(pool)]
        recipient = WALLETS[to % len(WALLETS)].address
        paid = 1 + amount % tx_input.amount
        if kind == "duplicate" and batch:
            batch.append(batch[pick % len(batch)])
            continue
        if kind == "phantom":
            tx_input = TxInput("%064x:%d" % (pick, to), wallet.address, tx_input.amount)
        elif kind == "wrong-amount":
            tx_input = TxInput(tx_input.utxo_id, wallet.address, tx_input.amount + 1)
        elif kind == "wrong-account":
            wallet = WALLETS[(WALLETS.index(wallet) + 1) % len(WALLETS)]
            tx_input = TxInput(tx_input.utxo_id, wallet.address, tx_input.amount)
        elif kind == "to-punished":
            recipient = PUNISHED.address
        if kind == "zero-amount":
            transaction = build_transfer(wallet, [tx_input], [(recipient, 0)], nonce=nonce)
        elif kind == "repeated-input":
            transaction = Transaction(
                inputs=(tx_input, tx_input),
                outputs=(TxOutput(recipient, paid),),
                nonce=nonce,
            )
        else:
            transaction = build_transfer(wallet, [tx_input], [(recipient, paid)], nonce=nonce)
        if kind == "unsigned":
            transaction.signatures.clear()
        batch.append(transaction)
        for index, tx_output in enumerate(transaction.outputs):
            if tx_output.account != PUNISHED.address and tx_output.amount > 0:
                pool.append(
                    (
                        TxInput(transaction.output_utxo_id(index), tx_output.account, tx_output.amount),
                        _owner(tx_output.account),
                    )
                )
    return batch


def _counters(report):
    return (report.duplicate, report.invalid, report.conflicting, report.phantom)


def _view_state(view, ids, accounts):
    return (
        len(view),
        {utxo_id: view.get(utxo_id) for utxo_id in ids},
        {account: view.balance(account) for account in accounts},
    )


def _assert_same_record(one, twin, batches):
    assert one.head_hash == twin.head_hash
    assert [block.block_hash for block in one.blocks] == [block.block_hash for block in twin.blocks]
    assert one.utxos.to_payload() == twin.utxos.to_payload()
    assert one.utxos.balances() == twin.utxos.balances()
    assert one.utxos.total_supply() == twin.utxos.total_supply()
    assert one.known_tx_ids == twin.known_tx_ids
    assert one._consumed == twin._consumed
    assert (one.deposit, one.seized_total) == (twin.deposit, twin.seized_total)
    ids = {utxo.utxo_id for utxo in GENESIS[1]} | set(one._consumed)
    for batch in batches:
        for transaction in batch:
            ids.update(tx_input.utxo_id for tx_input in transaction.inputs)
            ids.update(transaction.output_utxo_id(i) for i in range(len(transaction.outputs)))
    accounts = [wallet.address for wallet in WALLETS] + [PUNISHED.address]
    for height in range(one.height + 1):
        assert _view_state(one.view_at(height), ids, accounts) == _view_state(
            twin.view_at(height), ids, accounts
        )


MOVES = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(0, 40),
        st.integers(0, 3),
        st.integers(0, 90),
    ),
    max_size=14,
)


class TestOneLoopEqualsScreenThenApply:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(MOVES, st.booleans()), min_size=1, max_size=2)
    )
    def test_the_two_routes_end_on_the_same_record(self, drawn):
        one, twin = _record(), _record()
        batches = []
        for moves, assume_verified in drawn:
            batch = _batch(moves)
            batches.append(batch)
            report = AppendReport()
            block = one.append_block(batch, assume_verified=assume_verified, report=report)
            before = (twin.utxos.to_payload(), set(twin.known_tx_ids), dict(twin._consumed))
            screened = twin.filter_for_append(batch, assume_verified=assume_verified)
            # Screening on the overlay leaves the twin as it was.
            assert (twin.utxos.to_payload(), twin.known_tx_ids, twin._consumed) == before
            twin_block = twin.append_block(screened.accepted, validate=False)
            assert _counters(report) == _counters(screened)
            assert report.accepted == screened.accepted
            assert list(block.transactions) == report.accepted
            assert block.block_hash == twin_block.block_hash
        _assert_same_record(one, twin, batches)


#: One fixed hostile batch: its moves, and what each becomes against
#: :func:`_record`.
HOSTILE = [
    ("spend", 1, 1, 5),  # 0: valid
    ("spend", 11, 3, 7),  # 1: valid
    ("duplicate", 0, 0, 0),  # 2: transaction 0 again
    ("spend", 0, 2, 3),  # 3: spends an output the first block spent
    ("phantom", 7, 2, 1),  # 4: an input that never existed
    ("wrong-amount", 2, 1, 1),  # 5
    ("wrong-account", 4, 0, 2),  # 6
    ("unsigned", 5, 3, 9),  # 7: valid but for its signature
    ("zero-amount", 6, 1, 0),  # 8
    ("repeated-input", 7, 2, 4),  # 9
    ("to-punished", 8, 0, 6),  # 10: its payment is seized
    ("spend", 12, 1, 2),  # 11: spends transaction 0's payment
    ("spend", 1, 2, 8),  # 12: spends transaction 0's input again
    ("spend", 14, 0, 1),  # 13: spends transaction 1's payment
]


class TestPinnedHostileBatch:
    """The commit path's and the proposal validator's verdicts on
    :data:`HOSTILE`, as recorded before the screening loop went in place."""

    def test_commit_counters_are_pinned(self):
        batch = _batch(HOSTILE)
        for assume_verified, counters, accepted in (
            (False, (1, 5, 2, 1), [0, 1, 10, 11, 13]),
            (True, (1, 4, 2, 1), [0, 1, 7, 10, 11, 13]),
        ):
            record = _record()
            report = record.filter_for_append(batch, assume_verified=assume_verified)
            assert _counters(report) == counters
            assert report.accepted == [batch[index] for index in accepted]
            block = record.append_block(batch, assume_verified=assume_verified)
            assert list(block.transactions) == report.accepted
            assert (record.seized_total, record.deposit) == (77, 1_077)

    def test_validator_verdicts_are_pinned(self):
        batch = _batch(HOSTILE)
        manager = BlockchainManager(replica_id=0, genesis=GENESIS, initial_deposit=1_000)
        manager.record = _record()
        verdicts = [manager.validate_proposal(1, [transaction]) for transaction in batch]
        assert verdicts == [
            True, True, True, False, False, False, False, False, False, False,
            True, False, True, False,
        ]
        assert not manager.validate_proposal(1, batch)
        assert manager.validate_proposal(1, [batch[index] for index in (0, 1, 10, 11, 13)])
