"""Pass ``registry-contract``: every registry entry is documented and typed.

The control plane's registries (policies, sim backends, trace sources,
trace transforms, scenario kinds, analysis passes) are all
:class:`repro.registry.Registry` catalogs, with one contract: an entry
resolves by name, documents itself, and validates its options through a
typed dataclass whose defaults survive a dict -> JSON -> dict round trip
(spec files are the source of truth, so a default that JSON cannot
represent is a landmine).  The shared class enforces the runtime half
(names, aliases, ``config_type`` is a dataclass, unknown option keys);
this pass enforces the statically checkable half at every ``register_*``
call site, built-in and plugin alike:

- the call passes a non-empty literal ``description=`` (or the decorated
  object carries a docstring) -- registry listings must never show blank
  rows;
- when a ``config_type=``/``params_from=`` class is declared *in the same
  module*, it is a ``@dataclass(frozen=True)`` -- options objects are
  shared values, not scratch space;
- every default in that dataclass is a JSON-representable literal
  (or a ``default_factory`` of ``tuple``/``list``/``dict``), so
  ``option_fields()`` round-trips losslessly into spec files and docs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding, ModuleContext
from repro.analysis.registry import register_pass

__all__ = ["RegistryContractOptions", "check_registry_contract"]

PASS_ID = "registry-contract"

_CONFIG_KWARGS = ("config_type", "params_from")
_SAFE_FACTORIES = frozenset({"tuple", "list", "dict", "set", "frozenset"})


@dataclass(frozen=True)
class RegistryContractOptions:
    """Which registration entry points the contract binds."""

    decorators: tuple[str, ...] = (
        "register_policy",
        "register_backend",
        "register_trace_source",
        "register_trace_transform",
        "register_scenario",
        "register_pass",
    )


def _register_call_name(node: ast.Call, names: tuple[str, ...]) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in names:
        return func.attr
    if isinstance(func, ast.Name) and func.id in names:
        return func.id
    return None


def _keyword(node: ast.Call, name: str) -> ast.expr | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _is_json_literal(node: ast.expr) -> bool:
    """True for expressions JSON can represent verbatim."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_json_literal(node.operand)
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(_is_json_literal(e) for e in node.elts)
    if isinstance(node, ast.Dict):
        return all(
            k is not None and _is_json_literal(k) and _is_json_literal(v)
            for k, v in zip(node.keys, node.values)
        )
    return False


def _dataclass_decoration(cls: ast.ClassDef) -> tuple[bool, bool]:
    """(is_dataclass, is_frozen) from the class's decorator list."""
    for dec in cls.decorator_list:
        name = None
        if isinstance(dec, ast.Name):
            name = dec.id
        elif isinstance(dec, ast.Attribute):
            name = dec.attr
        elif isinstance(dec, ast.Call):
            if isinstance(dec.func, ast.Name):
                name = dec.func.id
            elif isinstance(dec.func, ast.Attribute):
                name = dec.func.attr
        if name != "dataclass":
            continue
        frozen = False
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                    frozen = bool(kw.value.value)
        return True, frozen
    return False, False


def _check_config_class(
    context: ModuleContext, cls: ast.ClassDef, registration: str
) -> list[Finding]:
    findings: list[Finding] = []
    is_dc, frozen = _dataclass_decoration(cls)
    if not is_dc:
        findings.append(
            context.finding(
                PASS_ID,
                cls,
                f"options class {cls.name} for {registration} is not a "
                "dataclass; typed options must be dataclasses",
            )
        )
        return findings
    if not frozen:
        findings.append(
            context.finding(
                PASS_ID,
                cls,
                f"options class {cls.name} for {registration} is not "
                "frozen; declare @dataclass(frozen=True) -- options are "
                "shared values",
            )
        )
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
            continue
        default = stmt.value
        field_name = (
            stmt.target.id if isinstance(stmt.target, ast.Name) else "<field>"
        )
        if (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id == "field"
        ):
            factory = _keyword(default, "default_factory")
            plain = _keyword(default, "default")
            if plain is not None:
                default = plain
            elif factory is not None:
                if not (
                    isinstance(factory, ast.Name)
                    and factory.id in _SAFE_FACTORIES
                ):
                    findings.append(
                        context.finding(
                            PASS_ID,
                            stmt,
                            f"{cls.name}.{field_name} uses a default_factory "
                            "that is not tuple/list/dict; its default cannot "
                            "round-trip through spec files",
                        )
                    )
                continue
            else:
                continue
        if not _is_json_literal(default):
            findings.append(
                context.finding(
                    PASS_ID,
                    stmt,
                    f"{cls.name}.{field_name} default is not a "
                    "JSON-representable literal; spec-file round-trips "
                    "(and registry docs) would lose it",
                )
            )
    return findings


def check_registry_contract(
    context: ModuleContext, options: RegistryContractOptions | None
) -> list[Finding]:
    options = options or RegistryContractOptions()
    classes = {
        node.name: node
        for node in ast.walk(context.tree)
        if isinstance(node, ast.ClassDef)
    }
    findings: list[Finding] = []
    checked_classes: set[str] = set()

    # Registration sites appear both as decorators and as plain calls
    # (``register_scenario(...)(factory)``); collect the decorated object
    # when there is one so its docstring can satisfy the doc requirement.
    sites: list[tuple[ast.Call, str, ast.AST | None]] = []
    for node in ast.walk(context.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                if isinstance(dec, ast.Call):
                    name = _register_call_name(dec, options.decorators)
                    if name is not None:
                        sites.append((dec, name, node))
        elif isinstance(node, ast.Call):
            name = _register_call_name(node, options.decorators)
            if name is not None and not any(
                node is dec for dec, _, _ in sites
            ):
                sites.append((node, name, None))

    seen: set[int] = set()
    for call, name, decorated in sites:
        if id(call) in seen:
            continue
        seen.add(id(call))
        entry = "<unnamed>"
        if call.args and isinstance(call.args[0], ast.Constant):
            entry = repr(call.args[0].value)
        registration = f"{name}({entry})"

        description = _keyword(call, "description")
        has_literal_description = (
            isinstance(description, ast.Constant)
            and isinstance(description.value, str)
            and description.value.strip() != ""
        ) or (
            # Parenthesized multi-line strings arrive as a single Constant;
            # explicit concatenation arrives as BinOp(Add) over constants.
            isinstance(description, ast.BinOp)
        ) or (
            isinstance(description, ast.JoinedStr)
        )
        docstring = (
            ast.get_docstring(decorated)
            if isinstance(
                decorated, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            else None
        )
        if description is not None and not has_literal_description and not isinstance(
            description, ast.Name
        ):
            findings.append(
                context.finding(
                    PASS_ID,
                    call,
                    f"{registration} passes an empty description; registry "
                    "listings must never show blank rows",
                )
            )
        elif description is None and not docstring:
            findings.append(
                context.finding(
                    PASS_ID,
                    call,
                    f"{registration} declares no description and the "
                    "registered object has no docstring; document the entry",
                )
            )

        for kwarg in _CONFIG_KWARGS:
            value = _keyword(call, kwarg)
            if (
                isinstance(value, ast.Name)
                and value.id in classes
                and value.id not in checked_classes
            ):
                checked_classes.add(value.id)
                findings.extend(
                    _check_config_class(context, classes[value.id], registration)
                )
    return findings


register_pass(
    PASS_ID,
    description=(
        "register_* call sites: non-empty descriptions/docstrings, frozen "
        "dataclass options, JSON-round-trippable defaults."
    ),
    config_type=RegistryContractOptions,
)(check_registry_contract)
