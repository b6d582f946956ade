"""Core types of the static-analysis layer: findings, contexts, suppressions.

A *finding* is one rule violation at one source location.  Findings are
identified across runs by a :meth:`Finding.fingerprint` built from the
pass id, the file path, and the *text* of the flagged line -- not the line
number -- so a checked-in baseline survives unrelated edits above the
finding.

A *module context* is one parsed source file: path, dotted module name,
AST, source lines, and the inline suppressions
(``# repro: allow(pass-id) -- reason``) extracted from the raw text.
Passes receive contexts instead of paths so a file is read and parsed
exactly once per lint run, and so tests can lint in-memory snippets via
:meth:`ModuleContext.from_source`.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "Suppression",
    "parse_suppressions",
    "SUPPRESSION_PASS_ID",
]

#: Pass id under which the framework itself reports malformed suppressions.
SUPPRESSION_PASS_ID = "suppression"

#: ``# repro: allow(pass-id[, pass-id...]) -- reason`` anywhere in a line.
#: The reason separator accepts an em dash, en dash, hyphen(s), or colon.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*([A-Za-z0-9_,\s-]*?)\s*\)"
    r"(?:\s*(?:—|–|--?|:)\s*(.*?))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation: which pass, where, and why it matters."""

    pass_id: str
    path: str
    line: int
    message: str
    #: The stripped source line, used for display and fingerprinting.
    snippet: str = ""

    def fingerprint(self) -> str:
        """Stable identity for baseline matching (survives line drift)."""
        payload = f"{self.pass_id}\x00{self.path}\x00{self.snippet}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def to_dict(self) -> dict:
        return {
            "pass": self.pass_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


@dataclass(frozen=True)
class Suppression:
    """One inline ``# repro: allow(...)`` annotation."""

    line: int
    pass_ids: tuple[str, ...]
    reason: str
    #: First source line the suppression covers (the annotated line, or the
    #: next line when the comment stands alone).
    target_line: int

    def covers(self, pass_id: str, line: int) -> bool:
        return line == self.target_line and pass_id in self.pass_ids


def parse_suppressions(
    lines: list[str], path: str
) -> tuple[list[Suppression], list[Finding]]:
    """Extract suppressions from raw source lines.

    A suppression on a code line covers that line; a comment-only
    suppression line covers the next line.  A suppression without a
    written reason is inert and reported as a finding itself: the whole
    point of the syntax is that every escape hatch carries a
    justification.
    """
    suppressions: list[Suppression] = []
    findings: list[Finding] = []
    for lineno, raw in enumerate(lines, start=1):
        match = _SUPPRESSION_RE.search(raw)
        if match is None:
            continue
        ids = tuple(p.strip() for p in match.group(1).split(",") if p.strip())
        reason = (match.group(2) or "").strip()
        snippet = raw.strip()
        if not ids:
            findings.append(
                Finding(
                    pass_id=SUPPRESSION_PASS_ID,
                    path=path,
                    line=lineno,
                    message="suppression names no pass ids: allow(<pass-id>)",
                    snippet=snippet,
                )
            )
            continue
        if not reason:
            findings.append(
                Finding(
                    pass_id=SUPPRESSION_PASS_ID,
                    path=path,
                    line=lineno,
                    message=(
                        "suppression has no reason; write "
                        "'# repro: allow(<pass-id>) -- why this is safe'"
                    ),
                    snippet=snippet,
                )
            )
            continue
        alone = raw.strip().startswith("#")
        suppressions.append(
            Suppression(
                line=lineno,
                pass_ids=ids,
                reason=reason,
                target_line=lineno + 1 if alone else lineno,
            )
        )
    return suppressions, findings


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, walking up through ``__init__.py`` dirs.

    ``.../src/repro/sim/flow.py`` -> ``"repro.sim.flow"``; a loose file
    outside any package is just its stem, which keeps module-scoped passes
    from firing on unrelated scripts.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass
class ModuleContext:
    """One parsed source file handed to every file-scoped pass."""

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: list[str]
    suppressions: list[Suppression] = field(default_factory=list)
    #: Framework findings raised while parsing (malformed suppressions).
    parse_findings: list[Finding] = field(default_factory=list)

    @classmethod
    def from_source(
        cls, source: str, *, path: str = "<memory>", module: str = ""
    ) -> "ModuleContext":
        """Parse an in-memory snippet (the fixture-test entry point)."""
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
        suppressions, findings = parse_suppressions(lines, path)
        return cls(
            path=path,
            module=module,
            source=source,
            tree=tree,
            lines=lines,
            suppressions=suppressions,
            parse_findings=findings,
        )

    @classmethod
    def from_file(cls, path: Path, *, display_path: str | None = None) -> "ModuleContext":
        source = Path(path).read_text()
        context = cls.from_source(
            source,
            path=display_path if display_path is not None else str(path),
            module=module_name_for(Path(path)),
        )
        return context

    def snippet_at(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, pass_id: str, node: ast.AST | int, message: str) -> Finding:
        """Build a finding anchored at an AST node (or explicit line)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(
            pass_id=pass_id,
            path=self.path,
            line=line,
            message=message,
            snippet=self.snippet_at(line),
        )

    def in_modules(self, prefixes: tuple[str, ...]) -> bool:
        """True when this file's module matches one of ``prefixes``."""
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )

    def is_suppressed(self, finding: Finding) -> bool:
        return any(
            s.covers(finding.pass_id, finding.line) for s in self.suppressions
        )


@dataclass
class ProjectContext:
    """Whole-repo view handed to project-scoped passes (e.g. perf-gate)."""

    root: Path
    contexts: list[ModuleContext] = field(default_factory=list)
