"""Shared benchmark configuration.

Every benchmark runs laptop-sized cells (the ``small`` grids, or one n = 9
attack cell); the paper-scale sweeps are ``python -m repro.scenarios sweep
--scale full``.  Heavy end-to-end attack simulations use
``benchmark.pedantic`` with a single round so the whole benchmark suite
completes in minutes on a laptop.
"""

import pathlib

import pytest

_BENCH_DIR = pathlib.Path(__file__).parent.resolve()


def pytest_collection_modifyitems(items):
    """Tag everything under benchmarks/ with the ``bench`` marker.

    The hook receives the whole session's items, so filter to this directory.
    """
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture
def small_attack_n() -> int:
    """Smallest committee size that supports the d = ceil(5n/9) - 1 coalition."""
    return 9
