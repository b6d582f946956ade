"""Pass ``determinism``: no ambient randomness or wall-clock in sim paths.

Byte-identity under refactor -- the repo's load-bearing invariant -- dies
the moment a simulation path draws from process-global RNG state or reads
the wall clock.  This pass flags, anywhere in the tree:

- calls through the stdlib ``random`` module's *module-level* API
  (``random.random()``, ``random.shuffle()``, even ``random.seed()``:
  global-state seeding is still shared mutable state).  Constructing an
  explicit ``random.Random(seed)`` instance is fine;
- calls through numpy's legacy global RNG (``np.random.rand()``,
  ``np.random.shuffle()``, ...).  The sanctioned route is an explicit
  ``np.random.default_rng(seed)`` / ``Generator`` threaded through
  parameters;
- ``np.random.default_rng()`` / ``np.random.RandomState()`` *without a
  seed argument* -- an OS-entropy generator is exactly the
  nondeterminism the explicit-Generator convention exists to prevent;

and, inside the simulation-path packages only (``modules`` option):

- wall-clock and entropy reads: ``time.time``/``time.time_ns``,
  ``datetime.now``/``utcnow``/``today``, ``uuid.uuid1``/``uuid4``,
  ``os.urandom``, and anything from ``secrets``.  Telemetry timers
  (``time.perf_counter``) are deliberately allowed: they time solves,
  they never steer them.

The online-serving package (``serve_modules`` option) gets a *stricter*
rule: there even the telemetry timers (``time.monotonic``,
``time.perf_counter``, ``time.sleep``) are flagged, because in the serve
loop timers *do* steer behaviour (deadline overruns, pacing).  All
wall-clock access must go through the injectable clock in
``clock_modules`` (``repro.serve.clock``), the one sanctioned boundary --
which is itself exempt.  That confinement is what lets the same loop run
digest-reproducibly on a virtual clock and live on a wall clock.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding, ModuleContext
from repro.analysis.registry import register_pass

__all__ = ["DeterminismOptions", "check_determinism"]

PASS_ID = "determinism"

#: numpy.random attributes that construct explicit generators (allowed).
_NP_RANDOM_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Constructors that are only deterministic when given a seed argument.
_NEEDS_SEED = frozenset({"default_rng", "RandomState", "SeedSequence"})

#: stdlib ``random`` attributes that are explicit-instance constructors.
_STDLIB_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

#: (module, attribute) wall-clock/entropy reads flagged inside sim paths.
#: ``attribute is None`` flags every call through the module.
_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("os", "urandom"),
}

#: Additional (module, attribute) clock calls flagged only inside the
#: serving package: timers steer the serve loop (deadlines, pacing), so
#: outside the sanctioned clock module they break replayability.
_SERVE_CLOCK_CALLS = {
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "sleep"),
}


@dataclass(frozen=True)
class DeterminismOptions:
    """Where the wall-clock rules apply (RNG rules apply everywhere)."""

    #: Dotted module prefixes forming the simulation path: code here feeds
    #: digests and reports, so clock reads are as fatal as global RNG.
    modules: tuple[str, ...] = (
        "repro.sim",
        "repro.cluster",
        "repro.queueing",
        "repro.hetero",
        "repro.api.parallel",
        "repro.native",
    )
    #: The online-serving package: the strict rule (telemetry timers and
    #: sleeps flagged too) applies here, except in ``clock_modules``.
    serve_modules: tuple[str, ...] = ("repro.serve",)
    #: The sanctioned wall-clock boundary; exempt from all clock findings.
    clock_modules: tuple[str, ...] = ("repro.serve.clock",)


class _ImportTracker(ast.NodeVisitor):
    """Map local names to the canonical modules/functions they refer to."""

    def __init__(self) -> None:
        #: local alias -> dotted module ("np" -> "numpy").
        self.modules: dict[str, str] = {}
        #: local name -> (source module, original name) for from-imports.
        self.names: dict[str, tuple[str, str]] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self.names[alias.asname or alias.name] = (node.module, alias.name)


def _attribute_chain(node: ast.AST) -> list[str] | None:
    """``np.random.rand`` -> ["np", "random", "rand"]; None for non-chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _canonical_call(
    chain: list[str], imports: _ImportTracker
) -> tuple[str, str] | None:
    """Resolve a call chain to (dotted module, attribute) via the imports."""
    head = chain[0]
    if head in imports.modules:
        module = imports.modules[head]
        rest = chain[1:]
    elif head in imports.names:
        source, original = imports.names[head]
        module = f"{source}.{original}" if len(chain) > 1 else source
        rest = chain[1:] if len(chain) > 1 else [original]
    else:
        return None
    if not rest:
        return None
    return ".".join([module, *rest[:-1]]), rest[-1]


def _has_seed_argument(node: ast.Call) -> bool:
    if node.args:
        return True
    return any(kw.arg in ("seed", "x") or kw.arg is None for kw in node.keywords)


def check_determinism(
    context: ModuleContext, options: DeterminismOptions | None
) -> list[Finding]:
    options = options or DeterminismOptions()
    imports = _ImportTracker()
    imports.visit(context.tree)
    in_sim_path = context.in_modules(options.modules)
    in_clock_module = context.in_modules(options.clock_modules)
    in_serve_path = (
        context.in_modules(options.serve_modules) and not in_clock_module
    )

    findings: list[Finding] = []
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attribute_chain(node.func)
        if chain is None:
            continue
        resolved = _canonical_call(chain, imports)
        if resolved is None:
            continue
        module, attr = resolved

        if module == "random" and attr not in _STDLIB_RANDOM_ALLOWED:
            findings.append(
                context.finding(
                    PASS_ID,
                    node,
                    f"random.{attr}() draws from process-global RNG state; "
                    "construct random.Random(seed) and thread it through",
                )
            )
        elif module == "numpy.random":
            if attr not in _NP_RANDOM_CONSTRUCTORS:
                findings.append(
                    context.finding(
                        PASS_ID,
                        node,
                        f"np.random.{attr}() uses numpy's global RNG; route "
                        "through an explicit np.random.default_rng(seed)",
                    )
                )
            elif attr in _NEEDS_SEED and not _has_seed_argument(node):
                findings.append(
                    context.finding(
                        PASS_ID,
                        node,
                        f"np.random.{attr}() without a seed pulls OS entropy; "
                        "pass an explicit seed or SeedSequence",
                    )
                )
        else:
            key = (module.rsplit(".", 1)[-1], attr)
            is_entropy = (
                key in _CLOCK_CALLS
                or module == "secrets"
                or module.startswith("secrets.")
            )
            if in_serve_path and (is_entropy or key in _SERVE_CLOCK_CALLS):
                findings.append(
                    context.finding(
                        PASS_ID,
                        node,
                        f"{'.'.join(chain)}() reads the wall clock inside the "
                        f"serving package ({context.module}); all clock access "
                        "must go through the injectable repro.serve.clock "
                        "boundary so serve runs stay replayable",
                    )
                )
            elif in_sim_path and not in_clock_module and is_entropy:
                findings.append(
                    context.finding(
                        PASS_ID,
                        node,
                        f"{'.'.join(chain)}() reads wall-clock/OS entropy "
                        f"inside a simulation-path module ({context.module}); "
                        "derive it from the scenario seed or pass it in as a "
                        "parameter",
                    )
                )
    return findings


register_pass(
    PASS_ID,
    description=(
        "Global RNG (random.*, np.random.*), unseeded default_rng, "
        "wall-clock/uuid reads in simulation-path modules, and any clock "
        "access in repro.serve outside the repro.serve.clock boundary."
    ),
    config_type=DeterminismOptions,
)(check_determinism)
