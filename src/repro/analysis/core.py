"""Rule framework for the ``repro`` static analyser.

The analyser is a thin AST pass: each :class:`Rule` walks a parsed
module (one :class:`FileContext` per file) and yields
:class:`Violation` records. Shared plumbing lives here —

* :class:`ImportTable` resolves local names to canonical dotted paths
  (``np.random.default_rng`` → ``numpy.random.default_rng``), so rules
  match *what is called*, not how the import happened to be spelled;
* :class:`SuppressionIndex` parses ``# repro: noqa[RULE1,RULE2]``
  (or a blanket ``# repro: noqa``) line comments;
* :func:`parent_map` lets rules look outward from a node (e.g. "is this
  ``np.log`` wrapped in an ``np.where`` guard?").

Rules come in two shapes. Per-file rules stay deliberately syntactic
and local: no type inference, one :class:`FileContext` at a time.
Project-wide rules (``project_wide = True``) instead receive a
:class:`~repro.analysis.graph.ProjectContext` — a whole-program model
(module import graph, per-function call graph, class attribute-access
index) built once per run — and implement :meth:`Rule.check_project`.
False positives are expected and cheap either way — that is what the
suppression comment is for.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.graph import ProjectContext

#: Recognised severities, most severe first.
SEVERITIES = ("error", "warning")

#: Every rule code must match this (letters + 3 digits).
RULE_CODE_RE = re.compile(r"^[A-Z]{3}\d{3}$")

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9\s,]*)\])?", re.IGNORECASE
)
#: ``# noqa: BLE001``-style justifications also silence EXC001's
#: broad-except check (kept compatible with ruff's vocabulary).
BLANKET_NOQA_RE = re.compile(r"#\s*noqa:\s*(?P<codes>[A-Z0-9, ]+)")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule, a location, and a message."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"
    snippet: str = ""

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "snippet": self.snippet,
        }


class SuppressionIndex:
    """Per-line ``# repro: noqa[...]`` suppressions for one file."""

    def __init__(self, source: str) -> None:
        self._all_rules: set[int] = set()
        self._by_line: dict[int, set[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _NOQA_RE.search(text)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None or not rules.strip():
                self._all_rules.add(lineno)
            else:
                codes = {r.strip().upper() for r in rules.split(",") if r.strip()}
                self._by_line.setdefault(lineno, set()).update(codes)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if line in self._all_rules:
            return True
        return rule in self._by_line.get(line, set())


class ImportTable(ast.NodeVisitor):
    """Maps local aliases to canonical dotted module/attribute paths."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            target = alias.name if alias.asname else alias.name.split(".", 1)[0]
            self.aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports: out of scope for these rules
        for alias in node.names:
            local = alias.asname or alias.name
            self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted path for a Name/Attribute chain, or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))


def parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Child → parent links for every node in ``tree``."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


@dataclass
class FileContext:
    """One parsed file plus everything a rule needs to inspect it."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    suppressions: SuppressionIndex = field(init=False)
    imports: ImportTable = field(init=False)
    _parents: dict[ast.AST, ast.AST] | None = field(default=None, repr=False)
    _stmt_starts: dict[int, int] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        self.suppressions = SuppressionIndex(self.source)
        self.imports = ImportTable()
        self.imports.visit(self.tree)

    @classmethod
    def parse(cls, path: Path, root: Path | None = None) -> "FileContext":
        """Parse ``path``; raises ``SyntaxError`` on unparsable source."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(path=path, relpath=relative_posix(path, root), source=source, tree=tree)

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        if self._parents is None:
            self._parents = parent_map(self.tree)
        return self._parents

    def statement_start(self, lineno: int) -> int:
        """First line of the innermost statement covering ``lineno``.

        A ``# repro: noqa[...]`` written on the opening line of a
        multi-line call/def must silence findings reported on any of its
        continuation lines, so suppressions are checked against this
        anchor as well as the literal finding line.
        """
        if self._stmt_starts is None:
            starts: dict[int, int] = {}
            for node in ast.walk(self.tree):
                if not isinstance(node, ast.stmt):
                    continue
                end = getattr(node, "end_lineno", None) or node.lineno
                for covered in range(node.lineno, end + 1):
                    prev = starts.get(covered)
                    # Innermost statement wins: the deepest statement
                    # covering a line starts latest.
                    if prev is None or node.lineno > prev:
                        starts[covered] = node.lineno
            self._stmt_starts = starts
        return self._stmt_starts.get(lineno, lineno)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def has_blanket_noqa(self, lineno: int, code_prefix: str = "BLE") -> bool:
        """True when the line carries a ``# noqa: BLE001``-style tag."""
        match = BLANKET_NOQA_RE.search(self.line_text(lineno))
        if match is None:
            return False
        return any(
            c.strip().startswith(code_prefix)
            for c in match.group("codes").split(",")
        )


def relative_posix(path: Path, root: Path | None = None) -> str:
    """``path`` relative to ``root`` (or cwd) as a posix string; falls
    back to the absolute posix path when outside both."""
    candidates = [root] if root is not None else []
    candidates.append(Path.cwd())
    resolved = path.resolve()
    for base in candidates:
        if base is None:
            continue
        try:
            return resolved.relative_to(Path(base).resolve()).as_posix()
        except ValueError:
            continue
    return resolved.as_posix()


class Rule:
    """Base class: subclasses define the class attrs and :meth:`check`."""

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    severity: ClassVar[str] = "error"
    description: ClassVar[str] = ""
    #: posix path suffixes where the rule is structurally exempt (the
    #: module that *implements* the guarded behaviour).
    exempt_suffixes: ClassVar[tuple[str, ...]] = ()
    #: project-wide rules run once over the whole-program
    #: :class:`~repro.analysis.graph.ProjectContext` instead of once
    #: per file; they implement :meth:`check_project`.
    project_wide: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.code and not RULE_CODE_RE.match(cls.code):
            raise ValueError(f"malformed rule code {cls.code!r}")
        if cls.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {cls.severity!r}")

    def applies_to(self, ctx: FileContext) -> bool:
        return not any(ctx.relpath.endswith(sfx) for sfx in self.exempt_suffixes)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def check_project(self, project: "ProjectContext") -> Iterator[Violation]:
        raise NotImplementedError

    def suppressed(self, ctx: FileContext, violation: Violation) -> bool:
        """Suppression lookup at the finding line *and* its statement
        start, so a noqa on the first line of a multi-line statement
        covers continuation-line findings."""
        if ctx.suppressions.is_suppressed(violation.rule, violation.line):
            return True
        anchor = ctx.statement_start(violation.line)
        return anchor != violation.line and ctx.suppressions.is_suppressed(
            violation.rule, anchor
        )

    def run(self, ctx: FileContext) -> Iterator[Violation]:
        """:meth:`check` filtered through per-line suppressions."""
        if not self.applies_to(ctx):
            return
        for violation in self.check(ctx):
            if self.suppressed(ctx, violation):
                continue
            yield violation

    def run_project(self, project: "ProjectContext") -> Iterator[Violation]:
        """:meth:`check_project` filtered through suppressions in the
        file each finding points at."""
        for violation in self.check_project(project):
            ctx = project.context_for(violation.path)
            if ctx is not None and self.suppressed(ctx, violation):
                continue
            yield violation

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            rule=self.code,
            path=ctx.relpath,
            line=line,
            col=col + 1,
            message=message,
            severity=self.severity,
            snippet=ctx.line_text(line).strip(),
        )
