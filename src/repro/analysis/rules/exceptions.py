"""EXC001 — exception discipline at the public API surface.

The package promises callers that everything it raises derives from
:class:`repro.errors.ReproError` (the CLI turns exactly that base class
into exit code 2). A stray ``ValueError`` from ``cli.py`` or
``pipeline/*`` escapes that contract and surfaces as a traceback.
Additionally — anywhere in the tree — a bare/broad ``except`` needs a
written justification (``# noqa: BLE001 - why`` or
``# repro: noqa[EXC001]``), because silently swallowing ``Exception``
is how determinism bugs hide.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.core import FileContext, Rule, Violation

#: Path fragments that mark a module as public API surface.
_PUBLIC_SURFACES = ("repro/cli.py", "repro/pipeline/")

#: Control-flow exceptions that are not error reporting.
_CONTROL_FLOW = {"SystemExit", "KeyboardInterrupt", "StopIteration", "GeneratorExit"}

#: Fallback when repro.errors cannot be imported (e.g. analysing a
#: checkout from outside the package); kept in sync by
#: tests/analysis/test_rules.py::test_known_error_names_current.
_FALLBACK_ERROR_NAMES = frozenset(
    {
        "ReproError",
        "UnitParseError",
        "UnitConversionError",
        "UnknownTermError",
        "DictionaryError",
        "CorpusError",
        "ModelError",
        "NotFittedError",
        "ConvergenceError",
        "LinkageError",
        "RheologyError",
        "ExperimentError",
        "ParallelError",
    }
)


def known_error_names() -> frozenset[str]:
    """Names of every ReproError subclass, read from the live package."""
    try:
        from repro import errors
    except ImportError:  # pragma: no cover - analysing without the package
        return _FALLBACK_ERROR_NAMES
    names = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ReproError)
    }
    return frozenset(names) | _FALLBACK_ERROR_NAMES


class ExceptionDisciplineRule(Rule):
    code: ClassVar[str] = "EXC001"
    name: ClassVar[str] = "exception-discipline"
    severity: ClassVar[str] = "error"
    description: ClassVar[str] = (
        "public surfaces (cli.py, pipeline/*) may only raise ReproError "
        "subclasses; bare/broad except clauses need a `# noqa: BLE001` "
        "or `# repro: noqa[EXC001]` justification anywhere"
    )

    def __init__(self) -> None:
        self._error_names = known_error_names()

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        public = any(fragment in ctx.relpath for fragment in _PUBLIC_SURFACES)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise) and public:
                finding = self._check_raise(ctx, node)
                if finding is not None:
                    yield finding
            elif isinstance(node, ast.ExceptHandler):
                finding = self._check_handler(ctx, node)
                if finding is not None:
                    yield finding

    # -- raise sites ------------------------------------------------------

    def _raised_name(self, ctx: FileContext, node: ast.Raise) -> str | None:
        exc = node.exc
        if exc is None:  # bare re-raise
            return None
        if isinstance(exc, ast.Call):
            exc = exc.func
        resolved = ctx.imports.resolve(exc)
        if resolved is not None:
            if resolved.startswith("repro.errors."):
                return None  # imported from the sanctioned hierarchy
            return resolved.rsplit(".", 1)[-1]
        if isinstance(exc, ast.Name):
            return exc.id
        return None  # dynamic expression; out of scope

    def _check_raise(self, ctx: FileContext, node: ast.Raise) -> Violation | None:
        name = self._raised_name(ctx, node)
        if name is None:
            return None
        if name in self._error_names or name in _CONTROL_FLOW:
            return None
        if not name[:1].isupper():
            return None  # a variable holding a caught exception
        return self.violation(
            ctx,
            node,
            f"public surface raises {name}; raise a ReproError subclass "
            "from repro.errors so the CLI contract (exit code 2) holds",
        )

    # -- except handlers --------------------------------------------------

    def _is_broad(self, ctx: FileContext, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for t in types:
            name = None
            resolved = ctx.imports.resolve(t)
            if resolved is not None:
                name = resolved.rsplit(".", 1)[-1]
            elif isinstance(t, ast.Name):
                name = t.id
            if name in ("Exception", "BaseException"):
                return True
        return False

    def _check_handler(
        self, ctx: FileContext, handler: ast.ExceptHandler
    ) -> Violation | None:
        if not self._is_broad(ctx, handler):
            return None
        if ctx.has_blanket_noqa(handler.lineno):
            return None
        return self.violation(
            ctx,
            handler,
            "bare/broad except swallows everything, including the "
            "determinism bugs this analyser exists to catch; narrow it "
            "or justify with `# noqa: BLE001 - why`",
        )
