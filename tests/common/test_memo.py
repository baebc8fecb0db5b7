"""The two-generation memo the per-vote caches share."""

import pytest

from repro.common.memo import AgedMemo


def _memo(**entries):
    memo = AgedMemo(cap=100)
    memo.update(entries)
    return memo


class TestAgedMemo:
    def test_a_hit_reads_the_current_generation_and_a_miss_raises(self):
        memo = _memo(a=1)
        assert memo["a"] == 1
        with pytest.raises(KeyError):
            memo["b"]
        assert memo.get("b") is None

    def test_a_previous_hit_is_promoted_and_survives_the_next_shift(self):
        memo = _memo(a=1, b=2)
        memo.shift()
        assert dict(memo) == {} and memo.previous == {"a": 1, "b": 2}
        assert memo["a"] == 1
        assert dict(memo) == {"a": 1} and memo.previous == {"b": 2}
        memo.shift()
        assert memo["a"] == 1
        with pytest.raises(KeyError):
            memo["b"]

    def test_the_retirement_horizon_shifts_once_a_depth_past_the_last_shift(self):
        memo = _memo(a=1)
        shifts = []
        for horizon in range(12):
            before = memo.previous
            memo.retire(horizon, depth=5)
            shifts.extend([horizon] if memo.previous is not before else [])
        assert shifts == [5, 10]
        # Replicas report horizons out of order: a lower one changes nothing.
        before = memo.previous
        for horizon in (8, 14, 9):
            memo.retire(horizon, depth=5)
        assert memo.previous is before
        memo.retire(15, depth=5)
        assert memo.previous is not before

    def test_a_generation_at_its_cap_shifts_on_the_next_miss(self):
        memo = AgedMemo(cap=3)
        for key in range(10):
            with pytest.raises(KeyError):
                memo[key]
            memo[key] = key
            assert len(memo) <= 3 and len(memo.previous) <= 3
        assert dict(memo) == {9: 9} and memo.previous == {6: 6, 7: 7, 8: 8}
