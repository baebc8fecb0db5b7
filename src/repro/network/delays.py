"""Message delay models.

The paper's experiments (§5.2–§5.3) inject delays drawn from three families:

* uniform delays with means of 200, 500, 1000 ms (and up to 5–10 s in the
  catastrophic scenarios of §5.3),
* a Gamma distribution with parameters taken from Internet measurement
  studies [49, 21],
* an "aws-like" distribution that samples the fixed latencies previously
  measured between AWS regions [20].

Each model implements :meth:`DelayModel.sample` returning a one-way delay in
seconds for a (sender, recipient) pair.  :class:`PartitionedDelay` composes a
base model with a cross-partition model to reproduce the attack setup where
partitions of honest replicas are slowed down while deceitful replicas
communicate normally with every partition.

A delay model only delays; which messages a fault drops is
:mod:`repro.network.faults`' decision.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import ReplicaId
from repro.network.partition import PartitionSpec

#: Round-trip-derived one-way latencies (seconds) between the five AWS regions
#: used by the paper's WAN deployment (California, Oregon, Ohio, Frankfurt,
#: Ireland).  Values follow the inter-region measurements the Red Belly paper
#: reports; the exact numbers only need to be realistic, the experiments use
#: their *relative* structure.
AWS_REGIONS: Tuple[str, ...] = (
    "us-west-1",   # California
    "us-west-2",   # Oregon
    "us-east-2",   # Ohio
    "eu-central-1",  # Frankfurt
    "eu-west-1",   # Ireland
)

AWS_LATENCY_SECONDS: Dict[Tuple[str, str], float] = {
    ("us-west-1", "us-west-1"): 0.001,
    ("us-west-1", "us-west-2"): 0.010,
    ("us-west-1", "us-east-2"): 0.025,
    ("us-west-1", "eu-central-1"): 0.073,
    ("us-west-1", "eu-west-1"): 0.069,
    ("us-west-2", "us-west-2"): 0.001,
    ("us-west-2", "us-east-2"): 0.034,
    ("us-west-2", "eu-central-1"): 0.079,
    ("us-west-2", "eu-west-1"): 0.062,
    ("us-east-2", "us-east-2"): 0.001,
    ("us-east-2", "eu-central-1"): 0.050,
    ("us-east-2", "eu-west-1"): 0.040,
    ("eu-central-1", "eu-central-1"): 0.001,
    ("eu-central-1", "eu-west-1"): 0.013,
    ("eu-west-1", "eu-west-1"): 0.001,
}


def _aws_latency(region_a: str, region_b: str) -> float:
    key = (region_a, region_b)
    if key in AWS_LATENCY_SECONDS:
        return AWS_LATENCY_SECONDS[key]
    return AWS_LATENCY_SECONDS[(region_b, region_a)]


class DelayModel:
    """Interface of every delay model: sample a one-way delay in seconds."""

    def sample(self, sender: ReplicaId, recipient: ReplicaId, rng: random.Random) -> float:
        """Return the delay, in seconds, of a message ``sender -> recipient``."""
        raise NotImplementedError

    def sample_many(
        self, sender: ReplicaId, targets: Sequence[ReplicaId], rng: random.Random
    ) -> List[float]:
        """Sample one delay per target, in target order.

        The contract is **bit-identity** with the scalar path: the returned
        list must equal ``[self.sample(sender, t, rng) for t in targets]``
        including RNG consumption order, so seeded runs are byte-identical
        whether the kernel batches or not.  Subclasses override this to hoist
        per-call lookups out of the fan-out loop.  A composite model's
        per-target branching *is* its RNG order: :class:`PartitionedDelay`
        batches and keeps that order (it can tell which model a target draws
        from without drawing), :class:`HighJitterDelay` draws to decide and
        inherits this loop.
        """
        sample = self.sample
        return [sample(sender, target, rng) for target in targets]

    def mean_delay(self) -> float:
        """Return the (approximate) mean one-way delay of the model in seconds.

        Used by the phase-level throughput model; subclasses should return a
        representative value even when the exact mean is pair-dependent.
        """
        raise NotImplementedError


class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` seconds (useful in unit tests)."""

    def __init__(self, delay: float = 0.01):
        if delay < 0:
            raise ConfigurationError("delay must be non-negative")
        self.delay = delay

    def sample(self, sender: ReplicaId, recipient: ReplicaId, rng: random.Random) -> float:
        return self.delay

    def sample_many(
        self, sender: ReplicaId, targets: Sequence[ReplicaId], rng: random.Random
    ) -> List[float]:
        # No randomness consumed, so a repeated constant is trivially identical.
        return [self.delay] * len(targets)

    def mean_delay(self) -> float:
        return self.delay


class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]``.

    The paper specifies uniform delays by their mean (200, 500, 1000 ms, up to
    5–10 s); :meth:`from_mean` maps a mean ``m`` to ``U[0.5 m, 1.5 m]`` which
    keeps the mean while providing enough spread to desynchronise partitions.
    """

    def __init__(self, low: float, high: float):
        if low < 0 or high < low:
            raise ConfigurationError(f"invalid uniform delay range [{low}, {high}]")
        self.low = low
        self.high = high

    @staticmethod
    def from_mean(mean_seconds: float) -> "UniformDelay":
        if mean_seconds <= 0:
            raise ConfigurationError("mean delay must be positive")
        return UniformDelay(low=0.5 * mean_seconds, high=1.5 * mean_seconds)

    def sample(self, sender: ReplicaId, recipient: ReplicaId, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def sample_many(
        self, sender: ReplicaId, targets: Sequence[ReplicaId], rng: random.Random
    ) -> List[float]:
        uniform = rng.uniform
        low = self.low
        high = self.high
        return [uniform(low, high) for _ in targets]

    def mean_delay(self) -> float:
        return (self.low + self.high) / 2


class GammaDelay(DelayModel):
    """Delays drawn from a Gamma distribution.

    Defaults follow the Internet delay measurements cited by the paper
    ([49, 21]): a shape around 2 with a mean of a few tens of milliseconds,
    i.e. most messages are fast with a heavier tail than the uniform model.
    """

    def __init__(self, shape: float = 2.0, mean_seconds: float = 0.04):
        if shape <= 0 or mean_seconds <= 0:
            raise ConfigurationError("gamma shape and mean must be positive")
        self.shape = shape
        self.scale = mean_seconds / shape
        self._mean = mean_seconds

    def sample(self, sender: ReplicaId, recipient: ReplicaId, rng: random.Random) -> float:
        return rng.gammavariate(self.shape, self.scale)

    def sample_many(
        self, sender: ReplicaId, targets: Sequence[ReplicaId], rng: random.Random
    ) -> List[float]:
        gammavariate = rng.gammavariate
        shape = self.shape
        scale = self.scale
        return [gammavariate(shape, scale) for _ in targets]

    def mean_delay(self) -> float:
        return self._mean


class AwsRegionDelay(DelayModel):
    """Delays that replay the measured AWS inter-region latencies.

    Replicas are assigned to the five regions round-robin (matching a
    geo-distributed deployment that spreads replicas evenly); each message
    samples the base inter-region latency plus a small jitter.
    """

    def __init__(self, jitter_fraction: float = 0.1, regions: Optional[Sequence[str]] = None):
        if jitter_fraction < 0:
            raise ConfigurationError("jitter_fraction must be non-negative")
        self.jitter_fraction = jitter_fraction
        self.regions: Tuple[str, ...] = tuple(regions) if regions else AWS_REGIONS
        for region in self.regions:
            if region not in AWS_REGIONS:
                raise ConfigurationError(f"unknown AWS region {region!r}")
        #: Base latency table indexed by region position: replica ``r`` lives
        #: in region ``r % len(regions)``, so every (sender, recipient) pair
        #: reduces to two modulos and two list indexes instead of string-keyed
        #: dict probes in the fan-out hot path.
        self._region_count = len(self.regions)
        self._pair_latency: List[List[float]] = [
            [_aws_latency(region_a, region_b) for region_b in self.regions]
            for region_a in self.regions
        ]

    def region_of(self, replica: ReplicaId) -> str:
        return self.regions[replica % len(self.regions)]

    def sample(self, sender: ReplicaId, recipient: ReplicaId, rng: random.Random) -> float:
        count = self._region_count
        base = self._pair_latency[sender % count][recipient % count]
        # ``sample_many`` spells ``uniform``'s expression out; ``TestSampleMany``
        # holds the two bit-identical.
        jitter = rng.uniform(-self.jitter_fraction, self.jitter_fraction) * base
        return max(0.0005, base + jitter)

    def sample_many(
        self, sender: ReplicaId, targets: Sequence[ReplicaId], rng: random.Random
    ) -> List[float]:
        count = self._region_count
        row = self._pair_latency[sender % count]
        draw = rng.random
        # ``rng.uniform(low, high)`` is ``low + (high - low) * rng.random()``:
        # the same draws and the same float expression, without its frame.
        low = -self.jitter_fraction
        span = self.jitter_fraction - low
        return [
            delay
            if (delay := (base := row[target % count]) + (low + span * draw()) * base)
            > 0.0005
            else 0.0005
            for target in targets
        ]

    def mean_delay(self) -> float:
        total = 0.0
        count = 0
        for region_a in self.regions:
            for region_b in self.regions:
                total += _aws_latency(region_a, region_b)
                count += 1
        return total / count


class HighJitterDelay(DelayModel):
    """Mostly-fast links that spike by hundreds of milliseconds.

    A two-mode mixture: with probability ``spike_probability`` the delay is
    drawn uniformly around ``spike_mean`` (a congested or rerouted path),
    otherwise from a Gamma base (a healthy Internet path).  Stresses timeout
    handling and desynchronises replicas far more than any stationary model
    with the same mean.
    """

    def __init__(
        self,
        base_mean: float = 0.02,
        spike_probability: float = 0.2,
        spike_mean: float = 0.5,
    ):
        if not 0 <= spike_probability <= 1:
            raise ConfigurationError("spike_probability must be within [0, 1]")
        if base_mean <= 0 or spike_mean <= 0:
            raise ConfigurationError("jitter delay means must be positive")
        self.base = GammaDelay(mean_seconds=base_mean)
        self.spike_probability = spike_probability
        self.spike = UniformDelay.from_mean(spike_mean)

    def sample(self, sender: ReplicaId, recipient: ReplicaId, rng: random.Random) -> float:
        if rng.random() < self.spike_probability:
            return self.spike.sample(sender, recipient, rng)
        return self.base.sample(sender, recipient, rng)

    def mean_delay(self) -> float:
        p = self.spike_probability
        return (1 - p) * self.base.mean_delay() + p * self.spike.mean_delay()


class PartitionedDelay(DelayModel):
    """Attack-scenario delays: slow down honest cross-partition links only.

    Messages between honest replicas of *different* partitions use
    ``cross_partition``; every other pair (same partition, or any pair
    involving a deceitful replica) uses ``base``.  This matches the setup of
    §5.2: "Deceitful replicas communicate normally with each partition."
    """

    def __init__(
        self,
        base: DelayModel,
        cross_partition: DelayModel,
        partition: PartitionSpec,
    ):
        self.base = base
        self.cross_partition = cross_partition
        self.partition = partition

    def sample(self, sender: ReplicaId, recipient: ReplicaId, rng: random.Random) -> float:
        if self.partition.crosses_partitions(sender, recipient):
            return self.cross_partition.sample(sender, recipient, rng)
        return self.base.sample(sender, recipient, rng)

    def sample_many(
        self, sender: ReplicaId, targets: Sequence[ReplicaId], rng: random.Random
    ) -> List[float]:
        side_of = self.partition.index.get
        side = side_of(sender)
        if side is None:
            # A bridging sender crosses nothing: the whole fan-out is the
            # base model's.
            return self.base.sample_many(sender, targets, rng)
        base = self.base.sample
        cross = self.cross_partition.sample
        return [
            (base if (other := side_of(target)) is None or other == side else cross)(
                sender, target, rng
            )
            for target in targets
        ]

    def mean_delay(self) -> float:
        return self.base.mean_delay()


def delay_model_from_name(name: str) -> DelayModel:
    """Build the delay models the paper refers to by name.

    Accepted names: ``"aws"`` / ``"aws-like"``, ``"gamma"``, ``"200ms"``,
    ``"500ms"``, ``"1000ms"``, ``"5000ms"``, ``"10000ms"`` (uniform with that
    mean), ``"constant"`` and ``"jitter"`` / ``"high-jitter"``.
    """
    key = name.strip().lower()
    if key in ("aws", "aws-like", "awslike"):
        return AwsRegionDelay()
    if key == "gamma":
        return GammaDelay()
    if key == "constant":
        return ConstantDelay()
    if key in ("jitter", "high-jitter", "highjitter"):
        return HighJitterDelay()
    if key.endswith("ms"):
        try:
            mean_ms = float(key[:-2])
        except ValueError:
            raise ConfigurationError(f"unknown delay model {name!r}") from None
        return UniformDelay.from_mean(mean_ms / 1000.0)
    raise ConfigurationError(f"unknown delay model {name!r}")
