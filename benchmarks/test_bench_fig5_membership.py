"""Figure 5: time to detect, exclude, include and catch up."""

import pytest

from repro.scenarios import ScenarioSpec, run_system
from repro.scenarios.library import run_catchup_timing


def _binary_cell(n: int, delay: str) -> ScenarioSpec:
    return ScenarioSpec(
        family="fig5", n=n, attack="binary", cross_partition_delay=delay
    )


@pytest.mark.parametrize("delay", ["1000ms", "500ms"])
def test_bench_fig5_detect_exclude_include(benchmark, small_attack_n, delay):
    result = benchmark.pedantic(
        run_system, args=(_binary_cell(small_attack_n, delay),), rounds=1
    )
    benchmark.extra_info["delay"] = delay
    benchmark.extra_info["detect_s"] = result.detect_time
    benchmark.extra_info["exclude_s"] = result.exclusion_time
    benchmark.extra_info["include_s"] = result.inclusion_time
    if result.recovered:
        # The paper observes exclusion taking longer than inclusion because the
        # exclusion proposals carry PoFs whose verification is expensive and
        # the exclusion consensus spans the still-partitioned committee.
        assert result.detect_time is not None
        assert result.exclusion_time is not None and result.inclusion_time is not None


def test_fig5_detection_grows_with_delay():
    """Higher injected delays delay detection (Fig. 5 left)."""
    fast = run_system(_binary_cell(9, "500ms"))
    slow = run_system(_binary_cell(9, "2000ms"))
    if fast.detect_time is not None and slow.detect_time is not None:
        assert slow.detect_time >= fast.detect_time


def test_bench_fig5_catchup(benchmark):
    """Catch-up verification time grows with blocks and committee size."""
    rows = benchmark.pedantic(
        run_catchup_timing, kwargs={"sizes": [9, 18], "block_counts": (10, 30)}, rounds=1
    )
    benchmark.extra_info["rows"] = rows
    by_key = {(row["n"], row["blocks"]): row["catchup_s"] for row in rows}
    # More blocks to verify -> more time; larger committee -> larger certs.
    assert by_key[(9, 30)] >= by_key[(9, 10)]
    assert by_key[(18, 30)] >= by_key[(9, 30)]
