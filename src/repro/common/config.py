"""Configuration dataclasses shared by the simulator, protocols and experiments.

The paper evaluates ZLB under a *deceitful* adversary parameterised by the
number of deceitful replicas ``d`` and benign replicas ``q`` (§3.2).  The
admissible region is either the classic ``f < n/3`` or ``d < 5n/9`` together
with ``3q + d < n``.  :class:`FaultConfig` validates those constraints so an
experiment cannot silently run outside the model the paper analyses.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.common.types import FaultKind, deceitful_ratio


@dataclasses.dataclass(frozen=True)
class FaultConfig:
    """Describes the fault mix of a committee of ``n`` replicas.

    Attributes:
        n: committee size.
        deceitful: number of deceitful replicas ``d``.
        benign: number of benign replicas ``q``.
        enforce_model: when True (default), reject configurations outside the
            paper's admissible region.  Experiments that deliberately explore
            larger coalitions (e.g. §5.3) may disable enforcement.
    """

    n: int
    deceitful: int = 0
    benign: int = 0
    enforce_model: bool = True

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError(f"committee size must be positive, got {self.n}")
        if self.deceitful < 0 or self.benign < 0:
            raise ConfigurationError("fault counts cannot be negative")
        if self.deceitful + self.benign > self.n:
            raise ConfigurationError(
                f"d + q = {self.deceitful + self.benign} exceeds n = {self.n}"
            )
        if self.enforce_model and not self.is_admissible():
            raise ConfigurationError(
                "fault configuration outside the paper's model: need either "
                f"f < n/3 or (d < 5n/9 and 3q + d < n); got n={self.n}, "
                f"d={self.deceitful}, q={self.benign}"
            )

    @property
    def faulty(self) -> int:
        """Total number of faulty replicas ``f = d + q``."""
        return self.deceitful + self.benign

    @property
    def honest(self) -> int:
        """Number of honest replicas."""
        return self.n - self.faulty

    @property
    def delta(self) -> float:
        """The deceitful ratio ``d / n``."""
        return deceitful_ratio(self.deceitful, self.n)

    def is_admissible(self) -> bool:
        """Return True when the configuration satisfies the paper's assumptions."""
        classic = self.faulty < self.n / 3
        extended = (self.deceitful < 5 * self.n / 9) and (
            3 * self.benign + self.deceitful < self.n
        )
        return classic or extended

    def consensus_safe(self) -> bool:
        """Return True when plain consensus is safe, i.e. ``f < n/3``."""
        return self.faulty < self.n / 3

    def fault_of(self, replica: int) -> FaultKind:
        """Return the fault kind of ``replica`` under the canonical assignment.

        Replicas ``0 .. d-1`` are deceitful, ``d .. d+q-1`` benign and the rest
        honest.  Experiments that need a different placement build their own
        mapping; this canonical assignment keeps unit tests deterministic.
        """
        if replica < 0 or replica >= self.n:
            raise ConfigurationError(f"replica {replica} outside committee of {self.n}")
        if replica < self.deceitful:
            return FaultKind.DECEITFUL
        if replica < self.deceitful + self.benign:
            return FaultKind.BENIGN
        return FaultKind.HONEST

    @staticmethod
    def paper_attack(n: int, benign: int = 0) -> "FaultConfig":
        """The attack configuration used throughout §5: ``d = ceil(5n/9) - 1``."""
        deceitful = math.ceil(5 * n / 9) - 1
        return FaultConfig(n=n, deceitful=deceitful, benign=benign)


@dataclasses.dataclass(frozen=True)
class ProtocolConfig:
    """Protocol-level knobs of an SBC replica (ZLB, or Red Belly without
    confirmation).

    Attributes:
        batch_size: transactions per proposal (the paper uses 10,000).
        confirmation_enabled: run the confirmation phase (§4.1.1 ②), the
            source of every proof of fraud; off, the replica is Red Belly.
        pof_threshold: number of PoFs required to start a membership change;
            ``None`` means the paper default ``ceil(n/3)``.
    """

    batch_size: int = 10_000
    confirmation_enabled: bool = True
    pof_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.pof_threshold is not None and self.pof_threshold <= 0:
            raise ConfigurationError("pof_threshold must be positive when set")


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    """Global simulation parameters.

    Attributes:
        seed: seed for every random number stream in the run.
        max_time: simulated-time horizon in seconds; events after it are dropped.
        max_events: hard cap on processed events, a guard against livelock.
    """

    seed: int = 0
    max_time: float = 3_600.0
    max_events: int = 5_000_000

    def __post_init__(self) -> None:
        if self.max_time <= 0:
            raise ConfigurationError("max_time must be positive")
        if self.max_events <= 0:
            raise ConfigurationError("max_events must be positive")
