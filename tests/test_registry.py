"""The catalog contract (repro.registry) over all six registries.

Each catalog -- policies, simulation backends, scenario kinds, trace
sources, trace transforms, analysis passes -- is a thin
:class:`repro.registry.Registry` subclass, so one parametrized test checks
what they share on a fresh instance of each: case-insensitive lookup,
unknown-name errors that name the noun, duplicate and alias rejection,
registration order, typed options.  Each catalog's own tests keep its
built-in entries and its ``build``/``create``/``apply``/``run``.
"""

from dataclasses import dataclass

import pytest

from repro.analysis import AnalysisPassRegistry
from repro.api import PolicyRegistry, ScenarioRegistry
from repro.sim import SimBackendRegistry
from repro.traces import TraceSourceRegistry, TraceTransformRegistry


@dataclass(frozen=True)
class ToyOptions:
    knob: int = 1


def toy(*args, **params):
    """The registered object; the contract never calls it."""


#: (registry class, noun in its errors, a catalog-specific field to filter on)
CATALOGS = [
    (PolicyRegistry, "policy", {"kind": "toy"}),
    (SimBackendRegistry, "simulator", {"fidelity": "toy"}),
    (ScenarioRegistry, "scenario kind", {}),
    (TraceSourceRegistry, "trace source", {}),
    (TraceTransformRegistry, "trace transform", {"nested_params": ("trace",)}),
    (AnalysisPassRegistry, "analysis pass", {"scope": "project"}),
]


@pytest.mark.parametrize(
    "registry_cls, noun, extra", CATALOGS, ids=[noun for _, noun, _ in CATALOGS]
)
def test_catalog_contract(registry_cls, noun, extra):
    registry = registry_cls()
    for name in ("zeta", "alpha"):
        registry.register(name, description=f"{name} entry")(toy)
    registry.register(
        "Toy-Entry", description="Toy.", aliases=("toy-alias",), **extra
    )(toy)
    registry.register("typed", description="Typed.", config_type=ToyOptions)(toy)

    # Case-insensitive lookup through the name or an alias.
    entry = registry.get("TOY-entry")
    assert entry.name == "Toy-Entry" and entry.description == "Toy."
    assert getattr(entry, registry.field) is toy
    assert registry.get("Toy-Alias") is entry
    assert "toy-ENTRY" in registry and "TOY-ALIAS" in registry
    for field, value in extra.items():
        assert getattr(entry, field) == value
        assert registry.names(**{field: value}) == ("Toy-Entry",)

    # Registration order, and only primary names count.
    assert registry.names() == ("zeta", "alpha", "Toy-Entry", "typed")
    assert [e.name for e in registry] == list(registry.names())
    assert len(registry) == 4

    # An unknown name names the noun and lists the known names.
    with pytest.raises(
        ValueError,
        match=f"^unknown {noun} 'ghost'; registered: alpha, toy-entry, typed, zeta$",
    ):
        registry.get("ghost")

    # A name or alias already taken, as a name or as an alias, is rejected.
    for name, aliases in (
        ("TOY-ENTRY", ()),
        ("toy-alias", ()),
        ("fresh", ("Zeta",)),
        ("fresh", ("toy-alias",)),
    ):
        with pytest.raises(ValueError, match=f"^{noun} '.*' is already registered"):
            registry.register(name, aliases=aliases)(toy)
    assert "fresh" not in registry
    with pytest.raises(ValueError, match="invalid"):
        registry.register(" padded")(toy)

    # A config type must be a dataclass.
    with pytest.raises(TypeError, match="dataclass"):
        registry.register("bad-config", config_type=dict)(toy)
    assert "bad-config" not in registry

    # Options: typed parsing, instance pass-through, unknown keys, none.
    assert registry.parse_options("typed", {"knob": 3}) == ToyOptions(knob=3)
    options = ToyOptions(knob=2)
    assert registry.parse_options("typed", options) is options
    assert registry.parse_options("typed", None) == ToyOptions()
    assert registry.get("typed").option_fields() == [("knob", 1)]
    with pytest.raises(
        ValueError, match=rf"unknown option\(s\) \['knbo'\] for {noun} 'typed'"
    ):
        registry.parse_options("typed", {"knbo": 3})
    assert registry.parse_options("toy-alias", None) is None
    assert entry.option_fields() == []
    with pytest.raises(ValueError, match=f"{noun} 'Toy-Entry' accepts no options"):
        registry.parse_options("toy-entry", {"knob": 1})

    # Unregistering (here through an alias) frees the name and its aliases.
    registry.unregister("toy-alias")
    assert "toy-entry" not in registry and "toy-alias" not in registry
    assert registry.names() == ("zeta", "alpha", "typed")
    registry.register("toy-alias", description="Reused.")(toy)
    assert registry.get("TOY-ALIAS").description == "Reused."
    with pytest.raises(ValueError, match=f"unknown {noun} 'toy-entry'"):
        registry.unregister("toy-entry")
