"""Unit tests for FaultConfig / ProtocolConfig / SimulationConfig."""

import math

import pytest

from repro.common.config import (
    FaultConfig,
    ProtocolConfig,
    SimulationConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.types import FaultKind


class TestFaultConfig:
    def test_all_honest(self):
        cfg = FaultConfig(n=10)
        assert cfg.honest == 10
        assert cfg.faulty == 0
        assert cfg.delta == 0.0
        assert cfg.consensus_safe()

    def test_classic_bound_admissible(self):
        cfg = FaultConfig(n=10, deceitful=1, benign=2)
        assert cfg.is_admissible()
        assert cfg.consensus_safe()

    def test_paper_attack_configuration(self):
        # §5: d = ceil(5n/9) - 1, q = 0.
        for n in (20, 40, 60, 90, 100):
            cfg = FaultConfig.paper_attack(n)
            assert cfg.deceitful == math.ceil(5 * n / 9) - 1
            assert cfg.benign == 0
            assert cfg.is_admissible()
            assert not cfg.consensus_safe()

    def test_extended_region_boundaries(self):
        # d < 5n/9 and 3q + d < n with n = 9: d <= 4, and with d = 4, q <= 1.
        FaultConfig(n=9, deceitful=4, benign=1)
        with pytest.raises(ConfigurationError):
            FaultConfig(n=9, deceitful=5, benign=1)
        with pytest.raises(ConfigurationError):
            FaultConfig(n=9, deceitful=4, benign=2)

    def test_enforcement_can_be_disabled(self):
        cfg = FaultConfig(n=9, deceitful=6, benign=0, enforce_model=False)
        assert not cfg.is_admissible()

    def test_counts_validation(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(n=0)
        with pytest.raises(ConfigurationError):
            FaultConfig(n=5, deceitful=-1)
        with pytest.raises(ConfigurationError):
            FaultConfig(n=5, deceitful=3, benign=3, enforce_model=False)

    def test_canonical_fault_assignment(self):
        cfg = FaultConfig(n=9, deceitful=2, benign=1)
        kinds = [cfg.fault_of(i) for i in range(9)]
        assert kinds[:2] == [FaultKind.DECEITFUL] * 2
        assert kinds[2] == FaultKind.BENIGN
        assert all(k is FaultKind.HONEST for k in kinds[3:])
        with pytest.raises(ConfigurationError):
            cfg.fault_of(9)


class TestProtocolConfig:
    def test_defaults_match_paper(self):
        cfg = ProtocolConfig()
        assert cfg.batch_size == 10_000
        assert cfg.confirmation_enabled

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(pof_threshold=0)


class TestSimulationConfig:
    def test_defaults(self):
        cfg = SimulationConfig()
        assert cfg.seed == 0
        assert cfg.max_time > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(max_time=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(max_events=0)
