"""Declarative scenario specifications.

A :class:`ScenarioSpec` captures *everything* one simulated cell needs — the
fault mix, the delay model, the coalition attack, the client workload, the
protocol knobs, the seed and the stop conditions — as a frozen, hashable value
object.  Two properties make the rest of the subsystem work:

* **content hash** — :attr:`ScenarioSpec.spec_hash` is a stable digest of the
  canonical JSON form, so identical cells hash identically across processes
  and sessions.  The :mod:`repro.scenarios.store` keys its cache on it and the
  :mod:`repro.scenarios.runner` uses it to make parallel sweeps
  order-independent.
* **dict/JSON round-trip** — :meth:`to_dict` / :meth:`from_dict` (and the JSON
  wrappers) reconstruct an identical spec, which is how specs cross the
  ``multiprocessing`` boundary and how cached results record what produced
  them.

Family-specific knobs that do not warrant a first-class field live in
``params``, a sorted tuple of ``(key, value)`` pairs (accepted as a mapping
for convenience) that participates in the hash like every other field.

A spec is also the one way to build a cell: :func:`system_for` deploys the
committee it describes, :func:`run_system` runs it to its stop conditions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.common.config import FaultConfig
from repro.common.errors import ConfigurationError
from repro.obs.core import LEVELS

#: Bump when the spec schema changes incompatibly; part of the content hash so
#: stale caches never alias new semantics.
SPEC_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One fully-determined simulation cell.

    Attributes:
        family: registered scenario family name (see
            :mod:`repro.scenarios.registry`); the family's runner interprets
            the spec.
        n: committee size (0 for cells with no committee, e.g. pure theory).
        deceitful: number of deceitful replicas; ``None`` means "derive from
            the attack": the paper's ``d = ceil(5n/9) - 1`` when an attack is
            set, 0 otherwise.
        benign: number of benign (crash-mute) replicas.
        enforce_model: validate an explicit ``deceitful`` count against the
            paper's admissible region (disable for deliberately out-of-model
            sweeps, §5.3 style).
        delay: base delay-model name (``"aws"``, ``"gamma"``, ``"200ms"``,
            ``"jitter"``, ``"lossy"``, ...).
        attack: ``"binary"`` / ``"rbbcast"`` coalition attack, or ``None``.
        cross_partition_delay: delay-model name injected between honest
            partitions while the attack runs (ignored without an attack).
        workload_transactions: client transfers submitted before the run;
            0 means the paper's 12 transfers per replica.  The registered
            attack grids spell the resolved value out so each cell's hash
            records what actually runs.
        batch_size: transactions per proposal.
        instances: consensus instances each active replica is asked to run.
        seed: seed for every random stream of the run.
        max_time: simulated-time stop condition in seconds.
        instrument: instrumentation level of the cell — ``""`` (bare, the
            default) or one of :data:`repro.obs.core.LEVELS`: ``"metrics"``
            (counters and latency histograms, rendered by ``python -m
            repro.scenarios report``, and their time series, exported
            with ``--series-out``), ``"trace"`` (causal spans, flight
            recorder) or ``"all"``.  What
            the level's back-ends collected is persisted next to the result
            row.  Part of the content hash, so instrumented and bare runs of
            the same cell cache separately.
        params: extra family-specific knobs as sorted ``(key, value)`` pairs.
    """

    family: str
    n: int = 0
    deceitful: Optional[int] = None
    benign: int = 0
    enforce_model: bool = True
    delay: str = "aws"
    attack: Optional[str] = None
    cross_partition_delay: Optional[str] = None
    workload_transactions: int = 0
    batch_size: int = 10
    instances: int = 2
    seed: int = 1
    max_time: float = 300.0
    instrument: str = ""
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.family:
            raise ConfigurationError("scenario family name cannot be empty")
        params = self.params
        if isinstance(params, Mapping):
            params = tuple(sorted(params.items()))
        else:
            params = tuple(sorted((str(k), v) for k, v in params))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "max_time", float(self.max_time))
        if self.instrument and self.instrument not in LEVELS:
            raise ConfigurationError(
                f"unknown instrumentation level {self.instrument!r}; "
                f"known: {', '.join(LEVELS)}"
            )

    # -- family-specific knobs -------------------------------------------------

    def param(self, key: str, default: Any = None) -> Any:
        """Return the family-specific knob ``key`` (or ``default``)."""
        for name, value in self.params:
            if name == key:
                return value
        return default

    def with_overrides(self, **changes: Any) -> "ScenarioSpec":
        """Return a copy with the given fields replaced (params merged)."""
        params = changes.pop("params", None)
        if params is not None:
            merged = dict(self.params)
            merged.update(dict(params))
            changes["params"] = tuple(sorted(merged.items()))
        return dataclasses.replace(self, **changes)

    # -- derived configuration -------------------------------------------------

    def fault_config(self) -> FaultConfig:
        """Materialise the :class:`FaultConfig` the spec describes."""
        if self.deceitful is None:
            if self.attack:
                return FaultConfig.paper_attack(self.n, benign=self.benign)
            return FaultConfig(n=self.n, benign=self.benign)
        return FaultConfig(
            n=self.n,
            deceitful=self.deceitful,
            benign=self.benign,
            enforce_model=self.enforce_model,
        )

    def attack_spec(self):
        """Materialise the :class:`~repro.zlb.system.AttackSpec` (or None)."""
        if not self.attack:
            return None
        from repro.zlb.system import AttackSpec

        return AttackSpec(
            kind=self.attack,
            cross_partition_delay=self.cross_partition_delay or "1000ms",
        )

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; JSON-serialisable and accepted by :meth:`from_dict`.

        ``instrument`` is only serialised when set, so bare (uninstrumented)
        cells keep the hashes they had before the field existed and old
        result stores stay valid.
        """
        data = {
            "schema": SPEC_SCHEMA_VERSION,
            "family": self.family,
            "n": self.n,
            "deceitful": self.deceitful,
            "benign": self.benign,
            "enforce_model": self.enforce_model,
            "delay": self.delay,
            "attack": self.attack,
            "cross_partition_delay": self.cross_partition_delay,
            "workload_transactions": self.workload_transactions,
            "batch_size": self.batch_size,
            "instances": self.instances,
            "seed": self.seed,
            "max_time": self.max_time,
            "params": {key: value for key, value in self.params},
        }
        if self.instrument:
            data["instrument"] = self.instrument
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        schema = data.get("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported scenario spec schema {schema!r} "
                f"(expected {SPEC_SCHEMA_VERSION})"
            )
        fields = {field.name for field in dataclasses.fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in fields}
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(payload))

    # -- identity --------------------------------------------------------------

    @property
    def spec_hash(self) -> str:
        """Stable content hash (16 hex chars) of the canonical JSON form."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]

    def label(self) -> str:
        """Compact human-readable cell label for progress output."""
        parts = [self.family]
        if self.n:
            parts.append(f"n={self.n}")
        if self.attack:
            parts.append(f"attack={self.attack}")
            if self.cross_partition_delay:
                parts.append(f"cross={self.cross_partition_delay}")
        elif self.delay != "aws":
            parts.append(f"delay={self.delay}")
        for key, value in self.params:
            parts.append(f"{key}={value}")
        parts.append(f"seed={self.seed}")
        if self.instrument:
            parts.append(self.instrument)
        return " ".join(parts)


def system_for(spec: ScenarioSpec) -> "ZLBSystem":
    """Deploy the committee ``spec`` describes on a fresh simulator.

    The one place a spec becomes a :class:`~repro.zlb.system.ZLBSystem`: fault
    mix, coalition attack and partition delays, client workload, seed and stop
    conditions all come from the spec.  The ``max_events`` param raises the
    simulator's livelock guard (the n=100 ``scale`` cells need more than the
    default 5M events).
    """
    from repro.zlb.system import ZLBSystem

    return ZLBSystem.create(
        spec.fault_config(),
        seed=spec.seed,
        delay=spec.delay,
        attack=spec.attack_spec(),
        workload_transactions=spec.workload_transactions or 12 * spec.n,
        batch_size=spec.batch_size,
        max_time=spec.max_time,
        max_events=spec.param("max_events"),
    )


def run_system(spec: ScenarioSpec) -> "SystemResult":
    """Build ``spec``'s system and run its ``instances`` to ``max_time``."""
    return system_for(spec).run_instances(spec.instances, until=spec.max_time)


def spec_key(spec_or_hash: Union[ScenarioSpec, str]) -> str:
    """Accept either a spec or a raw hash (store/runner convenience)."""
    if isinstance(spec_or_hash, ScenarioSpec):
        return spec_or_hash.spec_hash
    return spec_or_hash
