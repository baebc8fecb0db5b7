"""Appendix B: zero-loss theory table and ablation on the deposit factor."""

import pytest

from repro.analysis.zero_loss import g_function, minimum_blockdepth
from repro.scenarios import expand, run_specs


def test_bench_appendix_b_table(benchmark):
    rows = benchmark(run_specs, expand("appendix-b"))
    benchmark.extra_info["rows"] = rows
    by_case = {(row["delta"], row["rho"]): row["min_blockdepth"] for row in rows}
    # Paper: m = 4 (rho = 0.55) and m = 28 (rho = 0.9) at delta = 0.5 with
    # D = G/10; m = 37 / 46 / 58 for delta = 0.6 / 0.64 / 0.66 at rho = 0.9.
    # The closed form reproduces these within one block of rounding.
    assert abs(by_case[(0.5, 0.55)] - 4) <= 1
    assert abs(by_case[(0.5, 0.9)] - 28) <= 1
    assert abs(by_case[(0.6, 0.9)] - 37) <= 1
    assert abs(by_case[(0.64, 0.9)] - 46) <= 1
    assert abs(by_case[(0.66, 0.9)] - 58) <= 1
    # Blockdepth grows as the deceitful ratio approaches 2/3 (more branches).
    depths = [row["min_blockdepth"] for row in rows[1:]]
    assert depths == sorted(depths)


def test_bench_appendix_b_deposit_ablation(benchmark):
    """Ablation: a larger deposit factor b shrinks the required blockdepth."""

    def ablation():
        return {
            b: minimum_blockdepth(a=3, b=b, rho=0.9)
            for b in (0.05, 0.1, 0.5, 1.0, 2.0)
        }

    depths = benchmark(ablation)
    benchmark.extra_info["depths"] = depths
    values = [depths[b] for b in sorted(depths)]
    assert values == sorted(values, reverse=True)
    # Zero-loss condition is exactly at the boundary of the closed form.
    for b, m in depths.items():
        assert g_function(3, b, 0.9, m) >= 0
        if m > 0:
            assert g_function(3, b, 0.9, m - 1) < 0
