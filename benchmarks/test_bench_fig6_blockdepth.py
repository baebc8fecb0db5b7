"""Figure 6: minimum finalization blockdepth for zero loss (D = G/10)."""

import pytest

from repro.analysis.zero_loss import minimum_blockdepth, theoretical_blockdepth_curve
from repro.scenarios import expand, run_specs


def test_bench_fig6_measured_blockdepth(benchmark, small_attack_n):
    specs = [
        spec
        for spec in expand("fig6", "small")
        if (spec.n, spec.attack, spec.cross_partition_delay)
        == (small_attack_n, "binary", "1000ms")
    ]
    rows = benchmark.pedantic(run_specs, args=(specs,), rounds=1)
    assert len(rows) == 1
    benchmark.extra_info["rows"] = rows
    for row in rows:
        assert row["min_blockdepth"] >= 0
        assert 0.0 < row["estimated_rho"] < 1.0


def test_bench_fig6_theory_curve(benchmark):
    rows = benchmark(theoretical_blockdepth_curve)
    benchmark.extra_info["rows"] = rows
    depths = [row["min_blockdepth"] for row in rows]
    # Monotone: a more successful attack needs a deeper finalization window.
    assert depths == sorted(depths)


def test_fig6_shape_blockdepth_decreases_with_lower_rho():
    """Larger committees lower the attack success probability and thus m."""
    assert minimum_blockdepth(a=3, b=0.1, rho=0.3) < minimum_blockdepth(
        a=3, b=0.1, rho=0.9
    )
    # All small rho values yield m < 5, matching "m < 5 blocks for n > 80".
    assert minimum_blockdepth(a=3, b=0.1, rho=0.2) < 5
