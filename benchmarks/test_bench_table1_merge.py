"""Table 1: local time to merge two fully-conflicting blocks.

Paper values (C++ implementation): 0.55 ms / 4.20 ms / 41.38 ms for
100 / 1,000 / 10,000 transactions.  The pure-Python reproduction is expected
to be slower in absolute terms; the property that must hold is the roughly
linear growth with the block size.
"""

import pytest

from repro.scenarios.library import build_merge_fixture, merge_two_blocks


@pytest.mark.parametrize("blocksize", [100, 1_000, 10_000])
def test_bench_table1_merge_conflicting_block(benchmark, blocksize):
    """Merge a block of `blocksize` transactions, all conflicting (Alg. 2)."""

    def setup():
        record, conflicting_block = build_merge_fixture(blocksize, seed=1)
        return (record, conflicting_block), {}

    def merge(record, conflicting_block):
        return record.merge_block(conflicting_block)

    outcome = benchmark.pedantic(merge, setup=setup, rounds=3)
    assert outcome.merged_transactions == blocksize
    benchmark.extra_info["blocksize_txs"] = blocksize
    benchmark.extra_info["paper_reference_ms"] = {100: 0.55, 1_000: 4.20, 10_000: 41.38}[
        blocksize
    ]


def test_table1_merge_time_scales_linearly():
    """Sanity check on the Table 1 shape: 10x transactions => ~10x merge time."""
    small = min(merge_two_blocks(100, seed=s) for s in range(3))
    large = min(merge_two_blocks(1_000, seed=s) for s in range(3))
    assert large > small
    assert large / small < 50  # roughly linear, certainly not quadratic
