"""Command-line front end: ``python -m repro.analysis`` / ``repro lint``.

Exit codes: 0 — clean; 1 — any finding (a rule violation or a file that
does not parse); 2 — usage error (missing paths, unknown rule codes).
A finding is accepted only by an inline ``# repro: noqa[RULE] - reason``
on its line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.rules import rules_by_code
from repro.analysis.runner import (
    analyze_paths,
    iter_rule_docs,
    render_json,
    render_text,
)
from repro.analysis.sarif import render_sarif

#: Scanned when no paths are given and they exist under the cwd.
DEFAULT_PATHS = ("src/repro", "tests", "benchmarks")


def configure_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the analyser's arguments (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=f"files/directories to analyse (default: {', '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text); sarif emits SARIF 2.1.0",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "--dump-obs-names",
        action="store_true",
        help=(
            "scan for literal span/event/metric names and print "
            "registry sets for repro.obs.names, then exit"
        ),
    )
    parser.add_argument(
        "--check-obs-names",
        action="store_true",
        help=(
            "fail (exit 1) if the literal span/event/metric names in "
            "the tree drift from the repro.obs.names registry (minus "
            "its declared dynamic names)"
        ),
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    return configure_parser(
        argparse.ArgumentParser(
            prog="repro.analysis",
            description=(
                "Project-specific static analysis: RNG discipline, guarded "
                "linear algebra, log clamping, exception discipline, "
                "parallel task shape, lock discipline, fingerprint purity, "
                "observability-name registry, error-envelope completeness."
            ),
        )
    )


def _resolve_paths(args: argparse.Namespace) -> list[Path]:
    if args.paths:
        return [Path(p) for p in args.paths]
    defaults = [Path(p) for p in DEFAULT_PATHS if Path(p).exists()]
    if not defaults:
        raise FileNotFoundError(
            "no paths given and none of the defaults "
            f"({', '.join(DEFAULT_PATHS)}) exist under the current directory"
        )
    return defaults


def _scan_obs_names(paths: Sequence[Path]) -> dict[str, set[str]]:
    """Literal span/event/metric names found under ``paths``."""
    from repro.analysis.core import FileContext
    from repro.analysis.rules.obs import scan_names
    from repro.analysis.runner import discover

    found: dict[str, set[str]] = {"span": set(), "event": set(), "metric": set()}
    for path in discover(paths):
        try:
            ctx = FileContext.parse(path)
        except SyntaxError:
            continue
        for kind, name, _ in scan_names(ctx):
            found[kind].add(name)
    return found


def _dump_obs_names(paths: Sequence[Path]) -> int:
    """Scan ``paths`` and print ready-to-paste registry sets."""
    found = _scan_obs_names(paths)
    for kind, label in (("span", "SPANS"), ("event", "EVENTS"), ("metric", "METRICS")):
        print(f"{label}: frozenset[str] = frozenset(")
        print("    {")
        for name in sorted(found[kind]):
            print(f"        {name!r},")
        print("    }")
        print(")")
    return 0


def _check_obs_names(paths: Sequence[Path]) -> int:
    """Fail when the scanned names drift from the committed registry.

    The registry's dynamically-emitted names (``DYNAMIC_*`` in
    :mod:`repro.obs.names`) are subtracted before comparing — the
    scanner cannot see them by construction.
    """
    from repro.obs.names import scanner_visible_names

    found = _scan_obs_names(paths)
    expected = scanner_visible_names()
    problems: list[str] = []
    for kind in ("span", "event", "metric"):
        unregistered = found[kind] - expected[kind]
        vanished = expected[kind] - found[kind]
        for name in sorted(unregistered):
            problems.append(
                f"{kind} {name!r} is emitted but not registered in "
                "repro/obs/names.py (add it; if the call site builds "
                "the name dynamically, also add it to the DYNAMIC_* set)"
            )
        for name in sorted(vanished):
            problems.append(
                f"{kind} {name!r} is registered in repro/obs/names.py "
                "but no literal call site emits it (remove it, or move "
                "it to the DYNAMIC_* set if it became dynamic)"
            )
    if problems:
        print(
            f"obs-name registry drift ({len(problems)} problem(s)):",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        print(
            "regenerate with: python -m repro.analysis --dump-obs-names "
            "src/repro",
            file=sys.stderr,
        )
        return 1
    counts = ", ".join(
        f"{len(found[kind])} {kind}s" for kind in ("span", "event", "metric")
    )
    print(f"obs-name registry in sync ({counts})")
    return 0


def run_from_args(args: argparse.Namespace) -> int:
    """Execute an analyser invocation from parsed arguments."""
    if args.list_rules:
        for line in iter_rule_docs():
            print(line)
        return 0
    try:
        rules = (
            rules_by_code(tuple(args.select.split(",")))
            if args.select
            else None
        )
        paths = _resolve_paths(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro.analysis: {exc}", file=sys.stderr)
        return 2

    if args.dump_obs_names:
        return _dump_obs_names(paths)

    if args.check_obs_names:
        return _check_obs_names(paths)

    try:
        result = analyze_paths(paths, rules=rules)
    except FileNotFoundError as exc:
        print(f"repro.analysis: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result, rules=rules))
    else:
        print(render_text(result))
    return 1 if result.failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return run_from_args(args)
