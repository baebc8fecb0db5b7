"""Registry lookups, grid expansion and the built-in library."""

import pytest

from repro.common.errors import ConfigurationError
from repro.scenarios import registry
from repro.scenarios.spec import ScenarioSpec


class TestExpandGrid:
    def test_cartesian_product_sizes_by_seeds(self):
        specs = registry.expand_grid(
            "fig4",
            {"n": (9, 12), "seed": (1, 2, 3)},
            base={"attack": "binary", "cross_partition_delay": "1000ms"},
        )
        assert len(specs) == 6
        assert {(spec.n, spec.seed) for spec in specs} == {
            (n, seed) for n in (9, 12) for seed in (1, 2, 3)
        }

    def test_axis_order_is_major_to_minor(self):
        specs = registry.expand_grid(
            "fig4", {"cross_partition_delay": ("a", "b"), "n": (1, 2)}
        )
        assert [(s.cross_partition_delay, s.n) for s in specs] == [
            ("a", 1),
            ("a", 2),
            ("b", 1),
            ("b", 2),
        ]

    def test_non_field_axes_become_params(self):
        specs = registry.expand_grid("churn", {"rounds": (2, 3)}, base={"n": 9})
        assert [spec.param("rounds") for spec in specs] == [2, 3]
        assert all(spec.n == 9 for spec in specs)

    def test_base_params_shared_by_every_cell(self):
        specs = registry.expand_grid(
            "fig6", {"n": (9, 12)}, base={"params": {"deposit_factor": 0.1}}
        )
        assert all(spec.param("deposit_factor") == 0.1 for spec in specs)

    def test_all_cells_hash_distinct(self):
        specs = registry.expand_grid(
            "fig4",
            {"attack": ("binary", "rbbcast"), "n": (9, 12, 18), "seed": (1, 2)},
        )
        assert len({spec.spec_hash for spec in specs}) == len(specs)


class TestLibrary:
    def test_paper_families_registered(self):
        names = registry.family_names()
        for name in (
            "fig3",
            "fig4",
            "fig6",
            "table1",
            "appendix-b",
            "sec53",
            "quickstart",
        ):
            assert name in names

    def test_non_paper_families_registered(self):
        names = registry.family_names()
        for name in ("churn", "crash-recovery", "jitter-stress"):
            assert name in names

    def test_full_scale_grids_strictly_larger(self):
        for name in ("fig4", "fig6", "sec53", "table1"):
            family = registry.get_family(name)
            assert len(family.expand("full")) > len(family.expand("small"))

    def test_fig4_grid_covers_both_attacks(self):
        specs = registry.expand("fig4", "small")
        assert {spec.attack for spec in specs} == {"binary", "rbbcast"}

    def test_grid_cells_carry_their_family(self):
        for name in registry.family_names():
            for spec in registry.get_family(name).expand("small"):
                assert spec.family == name

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            registry.get_family("does-not-exist")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            registry.expand("fig4", "huge")

    def test_attack_family_rejects_a_spec_without_attack(self):
        with pytest.raises(ConfigurationError):
            registry.run_spec(ScenarioSpec(family="fig4", n=9))

    def test_run_spec_dispatches_to_family(self):
        row = registry.run_spec(ScenarioSpec(family="fig3", n=10, seed=0, instances=0))
        assert row["n"] == 10
        assert row["ZLB"] > 0
