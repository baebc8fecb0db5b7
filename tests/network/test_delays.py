"""Unit tests for the delay models."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.network.delays import (
    AWS_LATENCY_SECONDS,
    AWS_REGIONS,
    AwsRegionDelay,
    ConstantDelay,
    GammaDelay,
    HighJitterDelay,
    PartitionedDelay,
    UniformDelay,
    delay_model_from_name,
)
from repro.network.partition import PartitionSpec


@pytest.fixture
def rng():
    return random.Random(42)


class TestConstantDelay:
    def test_sample(self, rng):
        model = ConstantDelay(0.25)
        assert model.sample(0, 1, rng) == 0.25
        assert model.mean_delay() == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantDelay(-1)


class TestUniformDelay:
    def test_range(self, rng):
        model = UniformDelay.from_mean(0.5)
        samples = [model.sample(0, 1, rng) for _ in range(500)]
        assert all(0.25 <= s <= 0.75 for s in samples)

    def test_mean_close_to_requested(self, rng):
        model = UniformDelay.from_mean(1.0)
        samples = [model.sample(0, 1, rng) for _ in range(2000)]
        assert abs(sum(samples) / len(samples) - 1.0) < 0.05
        assert model.mean_delay() == pytest.approx(1.0)

    def test_invalid_ranges(self):
        with pytest.raises(ConfigurationError):
            UniformDelay(low=-0.1, high=0.2)
        with pytest.raises(ConfigurationError):
            UniformDelay(low=0.5, high=0.1)
        with pytest.raises(ConfigurationError):
            UniformDelay.from_mean(0)


class TestGammaDelay:
    def test_positive_samples(self, rng):
        model = GammaDelay()
        assert all(model.sample(0, 1, rng) > 0 for _ in range(200))

    def test_mean(self, rng):
        model = GammaDelay(shape=2.0, mean_seconds=0.04)
        samples = [model.sample(0, 1, rng) for _ in range(5000)]
        assert abs(sum(samples) / len(samples) - 0.04) < 0.005

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            GammaDelay(shape=0)
        with pytest.raises(ConfigurationError):
            GammaDelay(mean_seconds=0)


class TestAwsRegionDelay:
    def test_same_region_is_fast(self, rng):
        model = AwsRegionDelay()
        # Replicas 0 and 5 share the first region under round-robin placement.
        assert model.region_of(0) == model.region_of(5)
        assert model.sample(0, 5, rng) < 0.01

    def test_cross_continent_is_slow(self, rng):
        model = AwsRegionDelay(jitter_fraction=0.0)
        # California (index 0) to Frankfurt (index 3).
        delay = model.sample(0, 3, rng)
        assert delay > 0.05

    def test_symmetric_lookup(self, rng):
        model = AwsRegionDelay(jitter_fraction=0.0)
        assert model.sample(0, 3, rng) == pytest.approx(model.sample(3, 0, rng))

    def test_mean_delay_positive(self):
        assert AwsRegionDelay().mean_delay() > 0

    def test_unknown_region_rejected(self):
        with pytest.raises(ConfigurationError):
            AwsRegionDelay(regions=("mars-north-1",))

    def test_round_robin_covers_all_regions(self):
        model = AwsRegionDelay()
        regions = {model.region_of(i) for i in range(len(AWS_REGIONS))}
        assert regions == set(AWS_REGIONS)


class TestPartitionedDelay:
    def test_cross_partition_links_slow(self, rng):
        partition = PartitionSpec.split_evenly([0, 1, 2, 3], 2, bridging=[4, 5])
        model = PartitionedDelay(
            base=ConstantDelay(0.01),
            cross_partition=ConstantDelay(1.0),
            partition=partition,
        )
        slow_pairs = 0
        for sender in range(4):
            for recipient in range(4):
                delay = model.sample(sender, recipient, rng)
                if partition.crosses_partitions(sender, recipient):
                    assert delay == 1.0
                    slow_pairs += 1
                else:
                    assert delay == 0.01
        assert slow_pairs > 0

    def test_deceitful_bridges_fast_everywhere(self, rng):
        partition = PartitionSpec.split_evenly([0, 1, 2, 3], 2, bridging=[4])
        model = PartitionedDelay(
            base=ConstantDelay(0.01),
            cross_partition=ConstantDelay(1.0),
            partition=partition,
        )
        for other in range(4):
            assert model.sample(4, other, rng) == 0.01
            assert model.sample(other, 4, rng) == 0.01

    def test_mean_delay_reports_base(self):
        partition = PartitionSpec.split_evenly([0, 1], 2)
        model = PartitionedDelay(ConstantDelay(0.02), ConstantDelay(2.0), partition)
        assert model.mean_delay() == 0.02


class TestHighJitterDelay:
    def test_mixture_has_two_modes(self):
        rng = random.Random(1)
        model = HighJitterDelay(base_mean=0.02, spike_probability=0.3, spike_mean=0.5)
        samples = [model.sample(0, 1, rng) for _ in range(2_000)]
        spikes = [s for s in samples if s > 0.2]
        fast = [s for s in samples if s <= 0.2]
        assert 0.2 < len(spikes) / len(samples) < 0.4
        assert sum(fast) / len(fast) < 0.1

    def test_mean_is_probability_weighted(self):
        model = HighJitterDelay(base_mean=0.02, spike_probability=0.5, spike_mean=0.5)
        assert model.mean_delay() == pytest.approx(0.5 * 0.02 + 0.5 * 0.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            HighJitterDelay(spike_probability=1.5)
        with pytest.raises(ConfigurationError):
            HighJitterDelay(base_mean=0)


class TestDelayModelFromName:
    def test_named_models(self):
        assert isinstance(delay_model_from_name("aws"), AwsRegionDelay)
        assert isinstance(delay_model_from_name("aws-like"), AwsRegionDelay)
        assert isinstance(delay_model_from_name("gamma"), GammaDelay)
        assert isinstance(delay_model_from_name("constant"), ConstantDelay)
        assert isinstance(delay_model_from_name("jitter"), HighJitterDelay)
        assert isinstance(delay_model_from_name("high-jitter"), HighJitterDelay)

    def test_uniform_from_ms(self):
        model = delay_model_from_name("500ms")
        assert isinstance(model, UniformDelay)
        assert model.mean_delay() == pytest.approx(0.5)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            delay_model_from_name("warp-speed")
        with pytest.raises(ConfigurationError):
            delay_model_from_name("xxms")


class TestSampleMany:
    """The batched sampling contract: bit-identical to the scalar loop.

    The kernel samples broadcast fan-outs through ``sample_many``; a single
    float or RNG-state divergence from the per-target ``sample`` loop would
    silently re-schedule every seeded experiment, so identity is pinned for
    every model the registry can name plus the attack-scenario composite.
    """

    REGISTERED_NAMES = (
        "aws",
        "aws-like",
        "gamma",
        "constant",
        "jitter",
        "200ms",
        "500ms",
        "1000ms",
        "5000ms",
    )

    def _assert_bit_identical(self, model, sender, targets):
        scalar_rng = random.Random(7)
        batched_rng = random.Random(7)
        scalar = [model.sample(sender, target, scalar_rng) for target in targets]
        batched = model.sample_many(sender, targets, batched_rng)
        assert batched == scalar
        # Same values *and* the same amount of randomness consumed: the next
        # draw after the fan-out must not shift either.
        assert scalar_rng.getstate() == batched_rng.getstate()

    def test_every_registered_model(self):
        targets = list(range(20))
        for name in self.REGISTERED_NAMES:
            model = delay_model_from_name(name)
            self._assert_bit_identical(model, sender=3, targets=targets)

    def test_partitioned_composite(self):
        partition = PartitionSpec.split_evenly([0, 1, 2, 3, 4, 5], 2, bridging=[6])
        model = PartitionedDelay(
            base=GammaDelay(),
            cross_partition=UniformDelay.from_mean(1.0),
            partition=partition,
        )
        # The target list mixes same-partition, cross-partition and bridging
        # pairs, so the per-target branch order is exercised end to end.
        self._assert_bit_identical(model, sender=0, targets=[0, 1, 2, 3, 4, 5, 6])

    @pytest.mark.parametrize(
        "sender", [0, 1, 6, 9], ids=["side-0", "side-1", "bridging", "unknown"]
    )
    def test_partitioned_attack_composite(self, sender):
        """The attack cells' model (aws inside, a uniform second across): one
        fan-out reaching same-side, cross-side, bridging and unknown replicas
        (a candidate included after the split), in an order that alternates
        between the two models."""
        partition = PartitionSpec.split_evenly([0, 1, 2, 3, 4, 5], 2, bridging=[6, 7])
        model = PartitionedDelay(
            base=AwsRegionDelay(),
            cross_partition=UniformDelay.from_mean(1.0),
            partition=partition,
        )
        targets = [6, 0, 1, 9, 2, 3, 7, 5, 4, 10, 1, 0]
        self._assert_bit_identical(model, sender, targets)
        cross = [t for t in targets if partition.crosses_partitions(sender, t)]
        assert len(cross) == (0 if sender in (6, 9) else 4)
        delays = model.sample_many(sender, targets, random.Random(7))
        assert [d >= 0.5 for d in delays] == [t in cross for t in targets]

    def test_aws_table_matches_region_lookup(self, rng):
        # The precomputed pair table must agree with the string-keyed lookup
        # for every (sender, recipient) region combination.
        model = AwsRegionDelay(jitter_fraction=0.0)
        for sender in range(10):
            for recipient in range(10):
                expected = model.sample(sender, recipient, rng)
                via_regions = max(
                    0.0005,
                    AWS_LATENCY_SECONDS.get(
                        (model.region_of(sender), model.region_of(recipient)),
                        AWS_LATENCY_SECONDS.get(
                            (model.region_of(recipient), model.region_of(sender)), 0.0
                        ),
                    ),
                )
                assert expected == via_regions

    def test_empty_targets(self):
        model = delay_model_from_name("aws")
        rng_before = random.Random(5)
        assert model.sample_many(1, [], rng_before) == []
