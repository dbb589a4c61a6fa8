"""PAR001 — tasks handed to :mod:`repro.parallel` must be well-formed.

``run_tasks`` pickles the task function for its process pool and hands
every task a pre-spawned child generator. Both properties are easy to
break silently: a lambda or nested closure runs fine in the
single-worker loop and then cannot be pickled (the pool falls back to
serial and quietly loses the speedup) the first time ``workers > 1``;
a task without an ``rng`` parameter is a task that is about to reach
for global randomness. This rule checks call sites statically:
the function argument must be a module-level ``def`` (in the same file
or imported) whose signature accepts an explicit ``rng`` argument.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.core import FileContext, Rule, Violation

#: Canonical names of the submission entry points.
_SUBMIT_TARGETS = {
    "repro.parallel.run_tasks",
    "repro.parallel.executor.run_tasks",
}

_PARTIAL_TARGETS = {"functools.partial"}


def _module_level_defs(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _nested_def_names(ctx: FileContext) -> set[str]:
    toplevel = {id(n) for n in ctx.tree.body}
    return {
        node.name
        for node in ast.walk(ctx.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and id(node) not in toplevel
    }


def _param_names(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


class ParallelTaskRule(Rule):
    code: ClassVar[str] = "PAR001"
    name: ClassVar[str] = "parallel-task-shape"
    severity: ClassVar[str] = "error"
    description: ClassVar[str] = (
        "functions submitted to repro.parallel.run_tasks must be "
        "module-level (picklable for the process pool) and accept an "
        "explicit rng argument"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        defs = _module_level_defs(ctx.tree)
        nested = _nested_def_names(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.imports.resolve(node.func) not in _SUBMIT_TARGETS:
                # run_tasks defined in this very module (executor.py)
                if not (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "run_tasks"
                    and "run_tasks" in defs
                ):
                    continue
            fn_arg = self._task_argument(node)
            if fn_arg is None:
                continue
            yield from self._check_task(ctx, node, fn_arg, defs, nested)

    def _task_argument(self, call: ast.Call) -> ast.AST | None:
        if call.args:
            return call.args[0]
        for kw in call.keywords:
            if kw.arg == "fn":
                return kw.value
        return None

    def _check_task(
        self,
        ctx: FileContext,
        call: ast.Call,
        fn_arg: ast.AST,
        defs: dict[str, ast.FunctionDef],
        nested: set[str],
    ) -> Iterator[Violation]:
        if isinstance(fn_arg, ast.Lambda):
            yield self.violation(
                ctx,
                call,
                "lambda submitted to run_tasks is unpicklable for the "
                "process pool; use a module-level def with an rng "
                "parameter",
            )
            return
        # unwrap functools.partial(fn, ...) one level
        if isinstance(fn_arg, ast.Call) and (
            ctx.imports.resolve(fn_arg.func) in _PARTIAL_TARGETS
        ):
            if fn_arg.args:
                yield from self._check_task(ctx, call, fn_arg.args[0], defs, nested)
            return
        if not isinstance(fn_arg, ast.Name):
            return  # attribute/dynamic: out of static reach
        name = fn_arg.id
        if name in nested and name not in defs:
            yield self.violation(
                ctx,
                call,
                f"task {name!r} is a nested function; the process pool "
                "cannot pickle it — hoist it to module level",
            )
            return
        fn = defs.get(name)
        if fn is None:
            return  # imported name: imports are module-level by construction
        if "rng" not in _param_names(fn):
            yield self.violation(
                ctx,
                call,
                f"task {name!r} does not accept an explicit `rng` "
                "argument; run_tasks passes each task a pre-spawned "
                "Generator and the task must use it",
            )
