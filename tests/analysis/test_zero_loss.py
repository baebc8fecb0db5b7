"""Unit tests for the zero-loss theory (Appendix B, Theorem .5)."""

import pytest

from repro.analysis.zero_loss import (
    attack_success_probability,
    branch_bound,
    expected_gain,
    expected_punishment,
    g_function,
    minimum_blockdepth,
    tolerated_attack_probability,
)
from repro.common.errors import ConfigurationError


class TestGFunction:
    def test_zero_loss_boundary(self):
        # Exactly Thm .5: g >= 0 <=> zero loss.
        assert g_function(a=3, b=0.1, rho=0.3, m=5) > 0
        assert g_function(a=3, b=0.1, rho=0.99, m=5) < 0

    def test_single_branch_always_zero_loss(self):
        for rho in (0.0, 0.5, 1.0):
            assert g_function(a=1, b=0.1, rho=rho, m=0) >= 0

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            g_function(a=0, b=0.1, rho=0.5, m=1)
        with pytest.raises(ConfigurationError):
            g_function(a=3, b=0.0, rho=0.5, m=1)
        with pytest.raises(ConfigurationError):
            g_function(a=3, b=0.1, rho=1.5, m=1)
        with pytest.raises(ConfigurationError):
            g_function(a=3, b=0.1, rho=0.5, m=-1)


class TestExpectedGainAndPunishment:
    def test_gain_grows_with_branches(self):
        assert expected_gain(3, 100, 0.5, 2) > expected_gain(2, 100, 0.5, 2)

    def test_punishment_grows_with_deposit(self):
        assert expected_punishment(200, 0.5, 2) > expected_punishment(100, 0.5, 2)

    def test_deeper_finalization_reduces_gain(self):
        assert expected_gain(3, 100, 0.5, 10) < expected_gain(3, 100, 0.5, 1)

    def test_flux_is_punishment_minus_gain(self):
        # With b = D/G the g-function times G equals the flux.
        a, b, rho, m, gain = 3, 0.5, 0.6, 4, 1_000
        flux = expected_punishment(b * gain, rho, m) - expected_gain(a, gain, rho, m)
        assert flux == pytest.approx(g_function(a, b, rho, m) * gain)


class TestMinimumBlockdepth:
    def test_paper_values_within_rounding(self):
        # Appendix B: m = 4 (rho=.55) and m = 28 (rho=.9) for delta=.5, D=G/10.
        assert abs(minimum_blockdepth(a=3, b=0.1, rho=0.55) - 4) <= 1
        assert abs(minimum_blockdepth(a=3, b=0.1, rho=0.9) - 28) <= 1

    def test_monotone_in_rho(self):
        depths = [minimum_blockdepth(3, 0.1, rho) for rho in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert depths == sorted(depths)
        # Fig. 6: larger committees lower rho, and with it m ("m < 5 blocks
        # for n > 80").
        assert minimum_blockdepth(3, 0.1, 0.3) < minimum_blockdepth(3, 0.1, 0.9)
        assert minimum_blockdepth(3, 0.1, 0.2) < 5

    def test_monotone_in_deposit(self):
        depths = [minimum_blockdepth(3, b, 0.9) for b in (0.05, 0.1, 0.5, 1.0, 2.0)]
        assert depths == sorted(depths, reverse=True)
        assert minimum_blockdepth(3, 1.0, 0.9) < minimum_blockdepth(3, 0.05, 0.9)

    def test_boundary_is_tight(self):
        for b, rho in [(0.1, 0.8), (0.05, 0.9), (0.1, 0.9), (0.5, 0.9), (1.0, 0.9), (2.0, 0.9)]:
            m = minimum_blockdepth(a=3, b=b, rho=rho)
            assert g_function(3, b, rho, m) >= 0
            assert m == 0 or g_function(3, b, rho, m - 1) < 0

    def test_degenerate_cases(self):
        assert minimum_blockdepth(a=1, b=0.1, rho=0.99) == 0
        assert minimum_blockdepth(a=3, b=0.1, rho=0.0) == 0
        with pytest.raises(ConfigurationError):
            minimum_blockdepth(a=3, b=0.1, rho=1.0)


class TestToleratedProbability:
    def test_consistent_with_blockdepth(self):
        rho = tolerated_attack_probability(a=3, b=0.1, m=5)
        assert g_function(3, 0.1, rho, 5) >= -1e-9
        assert g_function(3, 0.1, min(1.0, rho + 0.05), 5) < 0

    def test_single_branch(self):
        assert tolerated_attack_probability(a=1, b=0.1, m=0) == 1.0


class TestBranchBound:
    def test_paper_ratio_half_gives_three(self):
        assert branch_bound(18, 9) == 3

    def test_no_deceitful_single_branch(self):
        assert branch_bound(10, 0) == 1

    def test_explodes_near_two_thirds(self):
        assert branch_bound(900, 594) > branch_bound(900, 540) > branch_bound(900, 450)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            branch_bound(0, 0)
        with pytest.raises(ConfigurationError):
            branch_bound(10, 11)


class TestAttackSuccessProbability:
    def test_laplace_smoothing_avoids_endpoints(self):
        assert 0 < attack_success_probability(0, 10) < 1
        assert 0 < attack_success_probability(10, 10) < 1

    def test_unsmoothed(self):
        assert attack_success_probability(5, 10, laplace_smoothing=False) == 0.5
        assert attack_success_probability(0, 0, laplace_smoothing=False) == 0.0

    def test_invalid_counts(self):
        with pytest.raises(ConfigurationError):
            attack_success_probability(5, 3)
