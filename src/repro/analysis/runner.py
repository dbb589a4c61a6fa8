"""File discovery and rule execution for the repro analyser."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.core import FileContext, Rule, Violation, relative_posix
from repro.analysis.graph import ProjectContext
from repro.analysis.rules import default_rules

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "node_modules", ".mypy_cache"}


def discover(paths: Sequence[Path | str]) -> list[Path]:
    """Python files under ``paths`` (files kept as-is), sorted, deduped."""
    found: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                found.setdefault(path.resolve(), None)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            found.setdefault(candidate.resolve(), None)
    return sorted(found)


@dataclass
class RunResult:
    """Everything one analyser invocation produced."""

    violations: list[Violation] = field(default_factory=list)
    checked_files: int = 0
    parse_failures: list[Violation] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """Any finding fails: a violation or a file that did not parse."""
        return bool(self.violations) or bool(self.parse_failures)

    def summary(self) -> str:
        total = len(self.violations) + len(self.parse_failures)
        return f"{self.checked_files} file(s) checked, {total} finding(s)"


def analyze_paths(
    paths: Sequence[Path | str],
    rules: Sequence[Rule] | None = None,
    root: Path | None = None,
) -> RunResult:
    """Run ``rules`` over every Python file under ``paths``.

    Suppressions (``# repro: noqa[...]``) are applied per rule; every
    violation that survives them is a finding. Per-file rules run file by
    file; project-wide rules run once afterwards over the
    :class:`~repro.analysis.graph.ProjectContext` built from every file
    that parsed.
    """
    active = tuple(rules) if rules is not None else default_rules()
    per_file = [rule for rule in active if not rule.project_wide]
    project_rules = [rule for rule in active if rule.project_wide]
    result = RunResult()
    contexts: list[FileContext] = []
    for path in discover(paths):
        result.checked_files += 1
        try:
            ctx = FileContext.parse(path, root=root)
        except SyntaxError as exc:
            result.parse_failures.append(
                Violation(
                    rule="SYNTAX",
                    path=relative_posix(path, root),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"cannot parse: {exc.msg}",
                    severity="error",
                )
            )
            continue
        contexts.append(ctx)
        for rule in per_file:
            result.violations.extend(rule.run(ctx))
    if project_rules:
        project = ProjectContext(contexts)
        for rule in project_rules:
            result.violations.extend(rule.run_project(project))
    result.violations.sort(key=Violation.sort_key)
    return result


def render_text(result: RunResult) -> str:
    """Human-readable report: parse failures, then findings, then totals."""
    lines: list[str] = []
    for v in result.parse_failures + result.violations:
        lines.append(v.format())
        if v.snippet:
            lines.append(f"    {v.snippet}")
    lines.append(result.summary())
    return "\n".join(lines)


def render_json(result: RunResult) -> str:
    """Machine-readable report (one JSON document)."""
    payload = {
        "checked_files": result.checked_files,
        "summary": result.summary(),
        "failed": result.failed,
        "parse_failures": [v.to_json() for v in result.parse_failures],
        "violations": [v.to_json() for v in result.violations],
    }
    return json.dumps(payload, indent=2)


def iter_rule_docs(rules: Iterable[Rule] | None = None) -> list[str]:
    """``CODE [severity] description`` lines for ``--list-rules``."""
    active = tuple(rules) if rules is not None else default_rules()
    return [
        f"{rule.code} ({rule.name}) [{rule.severity}]: {rule.description}"
        for rule in active
    ]
