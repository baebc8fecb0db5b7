"""Spec hashing, round-trips and derived configuration."""

import dataclasses
import hashlib

import pytest

from repro.common.config import FaultConfig
from repro.common.errors import ConfigurationError
from repro.scenarios import expand, run_system
from repro.scenarios.spec import ScenarioSpec


def _attack_spec(**overrides):
    fields = dict(
        family="fig4",
        n=9,
        attack="binary",
        cross_partition_delay="1000ms",
        instances=2,
        seed=1,
        max_time=300.0,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestHash:
    def test_hash_is_stable_across_instances(self):
        assert _attack_spec().spec_hash == _attack_spec().spec_hash

    def test_hash_is_hex16(self):
        digest = _attack_spec().spec_hash
        assert len(digest) == 16
        int(digest, 16)

    def test_every_field_changes_the_hash(self):
        base = _attack_spec()
        variants = [
            _attack_spec(n=12),
            _attack_spec(seed=2),
            _attack_spec(attack="rbbcast"),
            _attack_spec(cross_partition_delay="500ms"),
            _attack_spec(instances=3),
            _attack_spec(max_time=600.0),
            _attack_spec(family="fig6"),
            _attack_spec(params={"rounds": 3}),
        ]
        hashes = {base.spec_hash} | {variant.spec_hash for variant in variants}
        assert len(hashes) == len(variants) + 1

    def test_param_order_does_not_change_the_hash(self):
        a = _attack_spec(params={"x": 1, "y": 2})
        b = _attack_spec(params=(("y", 2), ("x", 1)))
        assert a.spec_hash == b.spec_hash

    def test_hash_survives_json_round_trip(self):
        spec = _attack_spec(params={"deposit_factor": 0.1})
        assert ScenarioSpec.from_json(spec.to_json()).spec_hash == spec.spec_hash


class TestInstrumentLevel:
    """The one instrumentation field (replaces three per-pillar booleans)."""

    #: Recorded at the commit before the field existed: bare cells must keep
    #: their hashes (and so their store cache keys) for ever.
    PINNED_BARE_HASHES = {
        "fig3": "f1f2fae8d793fa42",
        "fig4": "093a268de455cb19",
    }
    PINNED_BARE_JSON = (
        '{"attack":null,"batch_size":10,"benign":0,"cross_partition_delay":null,'
        '"deceitful":null,"delay":"aws","enforce_model":true,"family":"fig3",'
        '"instances":2,"max_time":300.0,"n":10,"params":{},"schema":1,"seed":1,'
        '"workload_transactions":0}'
    )

    def test_bare_spec_serialisation_and_hash_are_pinned(self):
        bare = ScenarioSpec(family="fig3", n=10)
        assert "instrument" not in bare.to_dict()
        assert bare.to_json() == self.PINNED_BARE_JSON
        assert bare.spec_hash == self.PINNED_BARE_HASHES["fig3"]
        assert _attack_spec().spec_hash == self.PINNED_BARE_HASHES["fig4"]
        explicit = ScenarioSpec(family="fig3", n=10, instrument="")
        assert explicit.spec_hash == bare.spec_hash

    #: One digest per (family, scale): sha256 over the newline-joined spec
    #: hashes of the grid, 16 hex digits.  A cell that changes here orphans
    #: every stored result of its family.
    PINNED_GRID_DIGESTS = {
        "appendix-b": ("4f41a89e1eb09bae", "4f41a89e1eb09bae"),
        "churn": ("de7694a8bde20cb9", "77446244ea7604ce"),
        "crash-recovery": ("f41174b9a7270d66", "44fe79728017edaf"),
        "fig3": ("1c7c35d3a5b5938d", "2e3987b940c04c20"),
        "fig4": ("74968f1e29bfd865", "c9f4a71317c9c39a"),
        "fig6": ("69eba215b337db7c", "bad1828daabf005d"),
        "jitter-stress": ("4ad8ceb3895f5feb", "46c77cb69910373c"),
        "quickstart": ("5252b4d87f0c3d8a", "5252b4d87f0c3d8a"),
        "scale": ("f2656a3009818463", "d10e5bc868273c38"),
        "sec53": ("45f0001578b66cec", "3147fddcb63f3d4c"),
        "table1": ("3a53e09c4049bc35", "78ce2137571dfa46"),
    }

    def test_registered_bare_cells_keep_their_hashes(self):
        def digest(name, scale):
            hashes = "\n".join(spec.spec_hash for spec in expand(name, scale))
            return hashlib.sha256(hashes.encode()).hexdigest()[:16]

        assert {
            name: (digest(name, "small"), digest(name, "full"))
            for name in self.PINNED_GRID_DIGESTS
        } == self.PINNED_GRID_DIGESTS

    @pytest.mark.parametrize("level", ["metrics", "trace", "all"])
    def test_each_level_hashes_labels_and_round_trips(self, level):
        bare = ScenarioSpec(family="fig3", n=10)
        instrumented = bare.with_overrides(instrument=level)
        assert instrumented.to_dict()["instrument"] == level
        assert instrumented.spec_hash != bare.spec_hash
        assert level in instrumented.label()
        assert ScenarioSpec.from_json(instrumented.to_json()) == instrumented

    def test_levels_hash_apart(self):
        hashes = {
            ScenarioSpec(family="fig3", n=10, instrument=level).spec_hash
            for level in ("", "metrics", "trace", "all")
        }
        assert len(hashes) == 4

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(family="fig3", n=10, instrument="everything")
        with pytest.raises(ConfigurationError, match="unknown instrumentation level"):
            ScenarioSpec(family="fig3", n=10, instrument="live")


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        spec = _attack_spec(params={"rounds": 2, "label": "x"})
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_identity(self):
        spec = _attack_spec(deceitful=4, benign=1, enforce_model=False)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_schema_rejected(self):
        data = _attack_spec().to_dict()
        data["schema"] = 99
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)


class TestDerivedConfig:
    def test_attack_defaults_to_paper_coalition(self):
        fault = _attack_spec(n=9).fault_config()
        assert fault == FaultConfig.paper_attack(9)

    def test_no_attack_defaults_to_honest(self):
        fault = ScenarioSpec(family="quickstart", n=7).fault_config()
        assert fault.deceitful == 0 and fault.honest == 7

    def test_explicit_deceitful_wins(self):
        fault = _attack_spec(deceitful=3).fault_config()
        assert fault.deceitful == 3

    def test_out_of_model_coalition_needs_enforcement_off(self):
        # d = 7 of n = 9 is past the paper's d < 5n/9: the attack families
        # used to run it anyway, whatever ``enforce_model`` said.
        spec = _attack_spec(deceitful=7)
        with pytest.raises(ConfigurationError):
            run_system(spec)
        result = run_system(spec.with_overrides(enforce_model=False))
        assert result.fault_config.deceitful == 7
        assert result.disagreements > 0

    def test_attack_spec_materialised(self):
        attack = _attack_spec(attack="rbbcast").attack_spec()
        assert attack.kind == "rbbcast"
        assert attack.cross_partition_delay == "1000ms"
        assert ScenarioSpec(family="fig3", n=10).attack_spec() is None

    def test_param_lookup_and_overrides(self):
        spec = _attack_spec(params={"rounds": 2})
        assert spec.param("rounds") == 2
        assert spec.param("missing", 7) == 7
        bumped = spec.with_overrides(seed=5, params={"rounds": 3})
        assert bumped.seed == 5
        assert bumped.param("rounds") == 3
        assert spec.param("rounds") == 2  # original untouched

    def test_empty_family_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(family="")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            _attack_spec().n = 10
