"""The catalog contract every registry shares.

Policies, simulation backends, scenario kinds, trace sources, trace
transforms and analysis passes are each a named entry in a catalog, so a
spec file (or the linter's command line) can select one by name.  Each
catalog is a thin subclass of :class:`Registry` holding entries of its own
:class:`Entry` subclass; this module is the one copy of what they share:

- names resolve case-insensitively, through the entry's name or any of its
  aliases, and are unique across both;
- an unknown name raises ``ValueError`` naming the catalog's noun and
  listing the registered names;
- iteration, ``names()`` and ``infos()`` follow registration order;
- options validate against the entry's frozen ``config_type`` dataclass
  (:meth:`Registry.parse_options`);
- keyword parameter surfaces come from the registered callable's signature
  (:class:`ParamEntry`, :func:`signature_params`).

Each subclass adds the one operation its callers need
(``build``/``create``/``apply``/``run``) and keeps its module-level
``register_*`` decorator and ``get_*registry`` accessor.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import lru_cache
from typing import Any, Callable, ClassVar, Generic, Iterator, Mapping, TypeVar

__all__ = [
    "Entry",
    "ParamEntry",
    "Registry",
    "check_unknown_params",
    "signature_params",
]


@dataclass(frozen=True, kw_only=True)
class Entry:
    """One registered entry: its name, documentation and options schema."""

    #: What the catalog calls an entry, in error messages ("policy", ...).
    noun: ClassVar[str] = "entry"

    name: str
    description: str = ""
    #: Frozen dataclass whose fields are the entry's options, or ``None``.
    config_type: type | None = None
    aliases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip():
            raise ValueError(f"invalid {self.noun} name {self.name!r}")
        if self.config_type is not None and not is_dataclass(self.config_type):
            raise TypeError(
                f"config_type for {self.name!r} must be a dataclass, "
                f"got {self.config_type!r}"
            )
        object.__setattr__(self, "aliases", tuple(self.aliases))

    def option_fields(self) -> list[tuple[str, Any]]:
        """(field name, default) pairs of the options schema, for docs/CLI."""
        if self.config_type is None:
            return []
        out = []
        for f in fields(self.config_type):
            if f.default is not MISSING:
                default = f.default
            elif f.default_factory is not MISSING:  # type: ignore[misc]
                default = f.default_factory()  # type: ignore[misc]
            else:
                default = None
            out.append((f.name, default))
        return out


E = TypeVar("E", bound=Entry)
T = TypeVar("T")


class Registry(Generic[E]):
    """Name -> entry catalog, case-insensitive, in registration order.

    A subclass sets ``entry_type`` (the :class:`Entry` subclass it holds,
    whose ``noun`` its errors use) and ``field`` (the entry field
    :meth:`register` stores the decorated object in).
    """

    entry_type: ClassVar[type[Entry]] = Entry
    field: ClassVar[str] = "fn"

    def __init__(self) -> None:
        self._entries: dict[str, E] = {}
        self._aliases: dict[str, str] = {}

    def register(self, name: str, **entry_fields: Any) -> Callable[[T], T]:
        """Decorator adding ``entry_type(name=..., <field>=obj, **entry_fields)``."""

        def decorator(obj: T) -> T:
            self.add(self.entry_type(name=name, **{self.field: obj}, **entry_fields))
            return obj

        return decorator

    def add(self, entry: E) -> None:
        """Register ``entry``; a name or alias already taken is rejected."""
        key = entry.name.lower()
        for taken in (key, *(alias.lower() for alias in entry.aliases)):
            if taken in self:
                raise ValueError(
                    f"{self.entry_type.noun} {taken!r} is already registered"
                )
        self._entries[key] = entry
        self._aliases.update((alias.lower(), key) for alias in entry.aliases)

    def unregister(self, name: str) -> None:
        """Remove an entry and its aliases; unknown names raise ValueError."""
        entry = self.get(name)
        del self._entries[entry.name.lower()]
        for alias in entry.aliases:
            del self._aliases[alias.lower()]

    def get(self, name: str) -> E:
        """Resolve ``name`` (or an alias) to its entry."""
        key = str(name).lower()
        entry = self._entries.get(self._aliases.get(key, key))
        if entry is None:
            known = ", ".join(sorted(self._entries))
            raise ValueError(
                f"unknown {self.entry_type.noun} {name!r}; registered: {known}"
            )
        return entry

    def __contains__(self, name: object) -> bool:
        key = str(name).lower()
        return key in self._entries or key in self._aliases

    def __iter__(self) -> Iterator[E]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def infos(self, **match: Any) -> tuple[E, ...]:
        """Entries in registration order; ``field=value`` keeps the entries
        whose field equals ``value`` (``None`` keeps all)."""
        return tuple(
            entry
            for entry in self
            if all(v is None or getattr(entry, k) == v for k, v in match.items())
        )

    def names(self, **match: Any) -> tuple[str, ...]:
        """Primary names of :meth:`infos`, in registration order."""
        return tuple(entry.name for entry in self.infos(**match))

    def parse_options(self, name: str, options: Mapping[str, Any] | Any = None):
        """Validate ``options`` against the entry's config type.

        Accepts a mapping (JSON-shaped, as stored in a spec), an
        already-constructed config instance, or ``None``.  Unknown keys
        raise ``ValueError`` so typos in spec files fail loudly.
        """
        entry = self.get(name)
        if entry.config_type is None:
            if options:
                raise ValueError(
                    f"{entry.noun} {entry.name!r} accepts no options, "
                    f"got {dict(options)!r}"
                )
            return None
        if isinstance(options, entry.config_type):
            return options
        data = dict(options or {})
        known = {f.name for f in fields(entry.config_type)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown option(s) {sorted(unknown)} for {entry.noun} "
                f"{entry.name!r}; accepted: {sorted(known)}"
            )
        return entry.config_type(**data)


# ------------------------------------------------------ parameter surfaces


@lru_cache(maxsize=256)
def signature_params(fn: Callable[..., Any]) -> tuple[tuple[str, ...], dict[str, Any], bool]:
    """(names, defaults, accepts_kwargs) of a callable's keyword surface.

    The parameter surface of every :class:`ParamEntry` and of the
    lowering layer: ``accepts_kwargs`` is True when the callable takes
    ``**kwargs``, in which case *any* parameter name must be accepted --
    name validation falls to the callable itself.  Cached: signature
    introspection is slow enough to dominate spec validation when a
    composed scenario carries hundreds of job pipelines.
    """
    names = []
    defaults: dict[str, Any] = {}
    accepts_kwargs = False
    for param in inspect.signature(fn).parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            accepts_kwargs = True
        elif param.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            names.append(param.name)
            if param.default is not inspect.Parameter.empty:
                defaults[param.name] = param.default
    return tuple(names), defaults, accepts_kwargs


def check_unknown_params(
    params: Mapping[str, Any], names: tuple[str, ...], what: str
) -> None:
    """Reject parameter names outside ``names`` -- one wording everywhere."""
    unknown = set(params) - set(names)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for {what}; "
            f"accepted: {sorted(names)}"
        )


@dataclass(frozen=True, kw_only=True)
class ParamEntry(Entry):
    """An entry whose ``fn`` takes JSON-valued keyword parameters."""

    fn: Callable[..., Any]
    #: Optional ``validate(params)`` hook run at spec-load time (cheap
    #: checks only: nothing is generated or built).
    validate: Callable[[dict[str, Any]], None] | None = None

    def param_names(self) -> tuple[str, ...]:
        """Keyword parameters ``fn`` accepts (for validation/CLI)."""
        return signature_params(self.fn)[0]

    def accepts_any_params(self) -> bool:
        """True when ``fn`` takes ``**kwargs``: every name is accepted and
        name validation falls to ``fn`` itself."""
        return signature_params(self.fn)[2]

    def check_param_names(self, params: Mapping[str, Any]) -> None:
        """Reject unknown parameter names (honouring ``**kwargs``)."""
        if not self.accepts_any_params():
            check_unknown_params(
                params, self.param_names(), f"{self.noun} {self.name!r}"
            )

    def check_params(self, params: Mapping[str, Any]) -> None:
        """Validate parameters without building: names, then the hook."""
        self.check_param_names(params)
        if self.validate is not None:
            try:
                self.validate(dict(params))
            except TypeError as exc:
                # A wrong-typed JSON value (e.g. "days": "2") surfaces as a
                # contextual load-time error, never a bare TypeError.
                raise ValueError(
                    f"invalid parameters for {self.noun} {self.name!r}: {exc}"
                ) from exc
