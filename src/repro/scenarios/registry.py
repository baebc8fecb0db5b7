"""Named scenario families and sweep-grid expansion.

A *family* bundles four things under a stable name:

* a **grid builder** — ``scale ("small" | "full") -> list of ScenarioSpec``,
  typically produced with :func:`expand_grid` over ``sizes x seeds x attack
  variants``;
* a **cell runner** — ``ScenarioSpec -> row`` (a flat JSON-serialisable dict),
  executed by the :class:`~repro.scenarios.runner.ScenarioRunner` either
  in-process or inside a worker pool;
* **claims** — statements across cells (the paper's, in a paper family),
  each a name and a predicate over the rows of a sweep (cached rows included,
  each with its cell's ``wall_clock_s``) that returns ``None`` when the claim
  holds, or a one-line reason quoting the numbers it read.  A claim that
  selects no rows (:func:`rows_where`) fails: it never holds vacuously.
  ``run`` and ``sweep`` print every verdict and exit 1 on a failed one;
* a description and tags for ``python -m repro.scenarios list``.

Families register themselves with the :func:`scenario` decorator::

    @scenario("fig4", description="...", grid=_fig4_grid, claims={...})
    def _run_fig4_cell(spec: ScenarioSpec) -> Dict[str, object]:
        ...

The built-in library (:mod:`repro.scenarios.library`, plus the ``scale``
family in :mod:`repro.scenarios.scale`) registers every paper experiment
(fig3-fig6, table1, appendix B, §5.3, quickstart) and the non-paper families;
it is imported lazily on first lookup so importing this module never drags in
the whole stack.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.scenarios.spec import ScenarioSpec

GridBuilder = Callable[[str], List[ScenarioSpec]]
CellRunner = Callable[[ScenarioSpec], Dict[str, Any]]
Claim = Callable[[List[Dict[str, Any]]], Optional[str]]

_SPEC_FIELDS = {field.name for field in dataclasses.fields(ScenarioSpec)}


@dataclasses.dataclass(frozen=True)
class ScenarioFamily:
    """A named, sweepable scenario family."""

    name: str
    description: str
    build: GridBuilder
    run: CellRunner
    tags: Tuple[str, ...] = ()
    claims: Tuple[Tuple[str, Claim], ...] = ()

    def verdicts(self, rows: List[Dict[str, Any]]) -> List[Tuple[str, Optional[str]]]:
        """Each claim's name and verdict over ``rows``: ``None`` when it holds,
        else why not (a field the rows lack fails the claim too)."""
        verdicts = []
        for name, claim in self.claims:
            try:
                reason = claim(rows)
            except KeyError as error:
                reason = f"rows lack {error}"
            except LookupError as error:
                reason = str(error)
            verdicts.append((name, reason))
        return verdicts

    def expand(self, scale: str = "small") -> List[ScenarioSpec]:
        """Expand the sweep grid at the given scale."""
        if scale not in ("small", "full"):
            raise ConfigurationError(
                f"scale must be 'small' or 'full', got {scale!r}"
            )
        specs = list(self.build(scale))
        for spec in specs:
            if spec.family != self.name:
                raise ConfigurationError(
                    f"family {self.name!r} built a spec of family {spec.family!r}"
                )
        return specs


_REGISTRY: Dict[str, ScenarioFamily] = {}
_LIBRARY_LOADED = False


def register(family: ScenarioFamily) -> ScenarioFamily:
    """Register (or re-register) a family under its name."""
    _REGISTRY[family.name] = family
    return family


def scenario(
    name: str,
    *,
    description: str = "",
    grid: GridBuilder,
    tags: Sequence[str] = (),
    claims: Optional[Mapping[str, Claim]] = None,
) -> Callable[[CellRunner], CellRunner]:
    """Decorator registering the decorated function as a family's cell runner."""

    def wrap(run: CellRunner) -> CellRunner:
        doc = (run.__doc__ or "").strip()
        register(
            ScenarioFamily(
                name=name,
                description=description or (doc.splitlines()[0] if doc else ""),
                build=grid,
                run=run,
                tags=tuple(tags),
                claims=tuple((claims or {}).items()),
            )
        )
        return run

    return wrap


def _ensure_library() -> None:
    """Import the built-in family library exactly once.

    The flag is only set after a *successful* import: if the library fails to
    load, the next lookup retries (and re-raises the root cause) instead of
    silently serving a partial registry.
    """
    global _LIBRARY_LOADED
    if not _LIBRARY_LOADED:
        import repro.scenarios.library  # noqa: F401  (registers on import)
        import repro.scenarios.scale  # noqa: F401  (registers on import)

        _LIBRARY_LOADED = True


def family_names() -> List[str]:
    """Sorted names of every registered family."""
    _ensure_library()
    return sorted(_REGISTRY)


def iter_families() -> List[ScenarioFamily]:
    """Every registered family, sorted by name."""
    _ensure_library()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_family(name: str) -> ScenarioFamily:
    """Look up a family by name."""
    _ensure_library()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario family {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def expand(name: str, scale: str = "small") -> List[ScenarioSpec]:
    """Expand the named family's sweep grid."""
    return get_family(name).expand(scale)


def run_spec(spec: ScenarioSpec) -> Dict[str, Any]:
    """Execute one cell through its family's runner."""
    return get_family(spec.family).run(spec)


def rows_where(rows: List[Dict[str, Any]], **fields: Any) -> List[Dict[str, Any]]:
    """The rows whose ``fields`` equal the given values; a claim that selects
    none fails (raises ``LookupError``, which :meth:`ScenarioFamily.verdicts`
    reports)."""
    selected = [
        row for row in rows if all(row.get(key) == value for key, value in fields.items())
    ]
    if not selected:
        shown = ", ".join(f"{key}={value!r}" for key, value in fields.items())
        raise LookupError(f"no rows match {shown or 'the claim'}")
    return selected


def every(test: Callable[[Dict[str, Any]], bool], *shown: str, **match: Any) -> Claim:
    """The claim that ``test`` holds on every row matching ``match`` (every
    row when none is given); it quotes the ``shown`` fields of each row it
    fails on."""

    def claim(rows: List[Dict[str, Any]]) -> Optional[str]:
        failed = [row for row in rows_where(rows, **match) if not test(row)]
        quoted = [" ".join(f"{field}={row[field]}" for field in shown) for row in failed]
        return "; ".join(quoted) or None

    return claim


def expand_grid(
    family: str,
    axes: Mapping[str, Sequence[Any]],
    base: Optional[Mapping[str, Any]] = None,
) -> List[ScenarioSpec]:
    """Cartesian sweep-grid expansion over the given axes.

    Axis keys naming :class:`ScenarioSpec` fields become fields; every other
    key becomes a family-specific ``params`` entry.  ``base`` supplies the
    constant fields shared by every cell.  Axes expand in insertion order, so
    ``{"cross_partition_delay": [...], "n": [...], "seed": [...]}`` yields the
    delay-major order the paper's figures tabulate.
    """
    base = dict(base or {})
    base_params = dict(base.pop("params", {}))
    names = list(axes)
    specs: List[ScenarioSpec] = []
    for combo in itertools.product(*(axes[name] for name in names)):
        fields: Dict[str, Any] = dict(base)
        params = dict(base_params)
        for name, value in zip(names, combo):
            if name in _SPEC_FIELDS:
                fields[name] = value
            else:
                params[name] = value
        specs.append(ScenarioSpec(family=family, params=tuple(sorted(params.items())), **fields))
    return specs
