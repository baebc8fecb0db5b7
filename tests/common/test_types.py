"""Unit tests for the quorum/threshold arithmetic in repro.common.types."""

import math

import pytest

from repro.common.types import (
    FaultKind,
    byzantine_tolerance,
    committee,
    deceitful_ratio,
    max_branches,
    quorum_size,
    recovery_threshold,
)


class TestQuorumSize:
    def test_small_committees(self):
        assert quorum_size(1) == 1
        assert quorum_size(3) == 2
        assert quorum_size(4) == 3
        assert quorum_size(6) == 4
        assert quorum_size(7) == 5

    def test_paper_sizes(self):
        # The paper runs 90-machine WAN experiments: ceil(2*90/3) = 60.
        assert quorum_size(90) == 60
        assert quorum_size(100) == 67

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            quorum_size(0)
        with pytest.raises(ValueError):
            quorum_size(-3)


class TestRecoveryThreshold:
    def test_matches_paper_default(self):
        # Alg. 1 line 12: f_d = ceil(n/3).
        assert recovery_threshold(3) == 1
        assert recovery_threshold(4) == 2
        assert recovery_threshold(90) == 30
        assert recovery_threshold(100) == 34

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            recovery_threshold(0)


class TestIntegerThresholdsAreTheCeilings:
    """The thresholds are computed in integers; they must be the paper's
    ceilings for every committee size anyone could run."""

    def test_every_committee_size_up_to_ten_thousand(self):
        for n in range(1, 10_001):
            assert quorum_size(n) == math.ceil(2 * n / 3), n
            assert recovery_threshold(n) == math.ceil(n / 3), n
            assert byzantine_tolerance(n) == math.ceil(n / 3) - 1, n

    @pytest.mark.parametrize("threshold", [quorum_size, recovery_threshold, byzantine_tolerance])
    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_non_positive_sizes_stay_errors(self, threshold, n):
        with pytest.raises(ValueError):
            threshold(n)


class TestByzantineTolerance:
    def test_classic_bound(self):
        assert byzantine_tolerance(4) == 1
        assert byzantine_tolerance(7) == 2
        assert byzantine_tolerance(10) == 3
        assert byzantine_tolerance(100) == 33

    def test_f_strictly_below_third(self):
        for n in range(1, 200):
            f = byzantine_tolerance(n)
            assert f < n / 3
            assert f + 1 >= n / 3


class TestDeceitfulRatio:
    def test_basic(self):
        assert deceitful_ratio(0, 10) == 0.0
        assert deceitful_ratio(5, 10) == 0.5

    def test_bounds(self):
        with pytest.raises(ValueError):
            deceitful_ratio(11, 10)
        with pytest.raises(ValueError):
            deceitful_ratio(-1, 10)
        with pytest.raises(ValueError):
            deceitful_ratio(0, 0)


class TestMaxBranches:
    def test_paper_example(self):
        # Appendix B: for a deceitful ratio of 0.5 the bound gives a = 3.
        n = 18
        d = 9
        assert max_branches(n, d) == 3

    def test_no_deceitful_single_branch(self):
        assert max_branches(10, 0) == 1

    def test_five_ninths_gives_three_branches(self):
        # d = ceil(5n/9) - 1 (the configuration of §5) yields 3 branches for
        # the sizes the paper sweeps.
        import math

        for n in (18, 36, 54, 90):
            d = math.ceil(5 * n / 9) - 1
            assert max_branches(n, d) == 3

    def test_degenerate_when_coalition_reaches_quorum(self):
        # With d >= ceil(2n/3) the denominator vanishes; the cap falls back to
        # the number of honest replicas.
        assert max_branches(9, 6) == 3

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            max_branches(10, 11)
        with pytest.raises(ValueError):
            max_branches(10, 5, benign=6)


class TestCommittee:
    def test_contains_all_ids(self):
        assert committee(4) == frozenset({0, 1, 2, 3})

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            committee(0)


class TestFaultKind:
    def test_members(self):
        assert FaultKind.HONEST.value == "honest"
        assert FaultKind.DECEITFUL.value == "deceitful"
        assert FaultKind.BENIGN.value == "benign"
