"""Named-scenario registry.

``@register_scenario`` turns a zero-argument spec factory into a named,
discoverable scenario: the ``scenarios`` CLI lists/describes/runs it,
tests iterate it, and the sweep runner can cache on its digest.  The
factory is re-invoked per lookup so callers always get a fresh,
immutable :class:`~repro.scenario.spec.ScenarioSpec` (safe to
``replace`` seeds or knobs without aliasing).

Every entry names the engine ``scenarios run`` executes it on.  The
``"object"`` entries are the golden-digest catalogue that tests and the
perf ledger iterate exhaustively, so that is what
:func:`scenario_names` and :func:`registered_scenarios` return by
default; the ``"flat"`` entries (10k+ members, numpy engine only) are
listed on request and found by :func:`get_scenario` like any other
name.  :func:`resolve_spec` is the one lookup every CLI subcommand
uses: a registered name, or a path to a spec JSON file.

Usage::

    @register_scenario("wan_burst_loss", description="bursty WAN links")
    def wan_burst_loss() -> ScenarioSpec:
        return scenario("wan_burst_loss").chain(20, 20).gilbert_elliott().spec()
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Union

from repro.scenario.builder import ScenarioBuilder
from repro.scenario.spec import ScenarioSpec

SpecFactory = Callable[[], Union[ScenarioSpec, ScenarioBuilder]]


@dataclass(frozen=True)
class RegisteredScenario:
    """One named entry: its factory plus catalogue metadata."""

    name: str
    description: str
    factory: SpecFactory
    engine: str = "object"

    def spec(self) -> ScenarioSpec:
        """A fresh spec carrying the registered name/description."""
        produced = self.factory()
        if isinstance(produced, ScenarioBuilder):
            produced = produced.spec()
        if not isinstance(produced, ScenarioSpec):
            raise TypeError(
                f"scenario factory {self.name!r} returned {type(produced).__name__}, "
                "expected ScenarioSpec or ScenarioBuilder"
            )
        changes = {}
        if produced.name != self.name:
            changes["name"] = self.name
        if self.description and not produced.description:
            changes["description"] = self.description
        return replace(produced, **changes) if changes else produced


_REGISTRY: Dict[str, RegisteredScenario] = {}


def register_scenario(
    name: Optional[str] = None, description: str = "", engine: str = "object"
) -> Callable[[SpecFactory], SpecFactory]:
    """Decorator registering a spec factory under *name* (default: the
    function's name) for *engine* (``"object"`` or ``"flat"``)."""

    def decorate(factory: SpecFactory) -> SpecFactory:
        scenario_name = name if name is not None else factory.__name__
        if scenario_name in _REGISTRY:
            raise ValueError(f"scenario {scenario_name!r} already registered")
        doc = description
        if not doc:
            lines = (factory.__doc__ or "").strip().splitlines()
            doc = lines[0] if lines else ""
        _REGISTRY[scenario_name] = RegisteredScenario(
            name=scenario_name, description=doc, factory=factory, engine=engine
        )
        return factory

    return decorate


def _ensure_library() -> None:
    """The built-in scenario library registers itself on import; pull it
    in lazily so registry lookups never depend on import order."""
    import repro.scenario.library  # noqa: F401


def registered_scenarios(engine: str = "object") -> Dict[str, RegisteredScenario]:
    """A snapshot of *engine*'s entries (name → entry), in registration
    order."""
    _ensure_library()
    return {
        name: entry for name, entry in _REGISTRY.items() if entry.engine == engine
    }


def scenario_names(engine: str = "object") -> List[str]:
    """The names registered for *engine*, in registration order."""
    return list(registered_scenarios(engine))


def get_scenario(name: str) -> ScenarioSpec:
    """A fresh spec for *name* (any engine); raises ``KeyError`` with
    the catalogue."""
    _ensure_library()
    try:
        entry = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: "
            + (", ".join(scenario_names()) or "<none>")
            + "; flat engine: " + ", ".join(scenario_names("flat"))
        ) from None
    return entry.spec()


def resolve_spec(name_or_path: str) -> ScenarioSpec:
    """A registered scenario name, or a path to a ScenarioSpec JSON file.

    Raises ``KeyError`` (with the catalogue) when it is neither, and
    ``OSError``/``ValueError`` when the file cannot be read as a spec.
    """
    try:
        return get_scenario(name_or_path)
    except KeyError:
        if not os.path.exists(name_or_path):
            raise
    with open(name_or_path, encoding="utf-8") as handle:
        return ScenarioSpec.from_json(handle.read())
