"""Static analysis for the byte-identity invariant: ``repro.analysis``.

Every PR preserves one contract -- simulations are bit-exact and
seed-stable under refactor -- but digest pins and differential suites
only catch a violation *after* an expensive run.  This package rejects
the whole bug class statically: a pluggable AST-analysis framework
(its passes are a :class:`repro.registry.Registry` catalog, like policies,
backends, scenario kinds and trace sources/transforms) whose built-in
passes flag unseeded RNG, wall-clock reads in sim paths, hash-ordered
iteration on merge/output paths, frozen-spec mutation, registry-contract
gaps, spawn-unsafe callables, and perf-gate drift before a single
simulation ticks.

Entry points:

- CLI: ``repro-faro lint [paths] [--changed] [--format json]``;
- API: :func:`run_analysis` over files, or per-snippet via
  :meth:`ModuleContext.from_source` (how the fixture tests work);
- extension: :func:`register_pass` adds a rule to the same catalog the
  CLI runs, with typed options and a suppression token
  (``# repro: allow(<pass-id>) -- reason``).
"""

from repro.analysis.findings import (
    Finding,
    ModuleContext,
    ProjectContext,
    Suppression,
    parse_suppressions,
)
from repro.analysis.registry import (
    AnalysisPassInfo,
    AnalysisPassRegistry,
    get_pass_registry,
    register_pass,
)
from repro.analysis.runner import (
    AnalysisReport,
    Baseline,
    changed_files,
    collect_files,
    find_project_root,
    run_analysis,
)

# Importing the passes package registers every built-in rule, exactly the
# way repro.api registers the built-in policies at import time.
from repro.analysis import passes as _passes  # noqa: F401

__all__ = [
    "AnalysisPassInfo",
    "AnalysisPassRegistry",
    "AnalysisReport",
    "Baseline",
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "Suppression",
    "changed_files",
    "collect_files",
    "find_project_root",
    "get_pass_registry",
    "parse_suppressions",
    "register_pass",
    "run_analysis",
]
