"""DET001: fingerprint purity for cached pipeline stages.

The artifact store's correctness contract is that a stage fingerprint
plus its inputs fully determine its payload bytes — a cached run must
be bit-identical to a fresh one. Any wall-clock read, OS entropy,
environment lookup or unordered ``set`` iteration on a code path
reachable from ``Stage.compute`` (or from the fingerprint helpers
themselves) silently desynchronises cached vs. fresh runs.

The rule walks the project call graph (``ProjectContext.reachable_from``)
starting at every ``compute``/``config_of`` method of a ``Stage``
subclass and every function in ``repro.artifacts.fingerprint``, then
flags hazards inside any reached function:

* wall-clock: ``time.time``, ``time.time_ns``, ``datetime.now`` & co.
  (``time.monotonic``/``perf_counter`` are fine — they never feed
  payloads, only telemetry);
* entropy: ``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets.*``;
* environment reads not routed through config: ``os.getenv``,
  ``os.environ[...]``;
* unordered ``set`` iteration feeding serialisation (``for x in {...}``,
  ``list(set(...))``, ``"".join(set(...))``) — ``sorted(set(...))`` is
  the deterministic spelling.

``repro.obs`` and ``repro.parallel`` are exempt: their timing calls are
telemetry by design and never reach payload bytes.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.core import Rule, Violation
from repro.analysis.graph import (
    FunctionInfo,
    ProjectContext,
    is_product_path,
    iter_own_nodes,
)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_ENTROPY = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.choice",
    }
)

_ENV_READS = frozenset({"os.getenv", "os.environ.get"})

#: Modules whose reachable code may read clocks: telemetry by design,
#: structurally unable to feed payload bytes.
_EXEMPT_MODULE_PREFIXES = ("repro.obs", "repro.parallel")

#: Collection constructors whose argument being a set means the
#: element order leaks into the output.
_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple"})


class FingerprintPurityRule(Rule):
    code: ClassVar[str] = "DET001"
    name: ClassVar[str] = "fingerprint-purity"
    severity: ClassVar[str] = "error"
    project_wide: ClassVar[bool] = True
    description: ClassVar[str] = (
        "Code reachable from Stage.compute or the fingerprint helpers "
        "must be pure: no wall-clock, OS entropy, raw environment reads "
        "or unordered set iteration — they desynchronise cached vs. "
        "fresh runs."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        root_of = project.reachable_from(self._roots(project))
        for qualname in sorted(root_of):
            info = project.functions[qualname]
            if not is_product_path(info.ctx.relpath):
                continue
            if info.module.startswith(_EXEMPT_MODULE_PREFIXES):
                continue
            yield from self._check_function(info, root_of[qualname])

    #: Modules whose every function is a fingerprint input and therefore
    #: a purity root: the canonicalise/hash helpers (wall-clock or
    #: entropy in a fingerprint would split cache entries between
    #: identical configs).
    _ROOT_MODULES: ClassVar[tuple[str, ...]] = ("repro.artifacts.fingerprint",)

    @classmethod
    def _roots(cls, project: ProjectContext) -> list[str]:
        roots: list[str] = []
        for stage_cls in project.classes_with_base("Stage"):
            for method in ("compute", "config_of"):
                qualname = f"{stage_cls.qualname}.{method}"
                if qualname in project.functions:
                    roots.append(qualname)
        for qualname, info in project.functions.items():
            if info.module in cls._ROOT_MODULES:
                roots.append(qualname)
        return sorted(set(roots))

    def _check_function(
        self, info: FunctionInfo, root: str
    ) -> Iterator[Violation]:
        where = (
            f"in {info.qualname}"
            if info.qualname == root
            else f"in {info.qualname}, reachable from {root}"
        )
        for dotted, call in info.external_calls:
            if dotted in _WALL_CLOCK:
                yield self.violation(
                    info.ctx,
                    call,
                    f"wall-clock read {dotted}() {where}: cached and "
                    "fresh runs would diverge; thread timestamps through "
                    "config or stage inputs instead",
                )
            elif dotted in _ENTROPY:
                yield self.violation(
                    info.ctx,
                    call,
                    f"OS entropy {dotted}() {where}: all randomness on "
                    "fingerprinted paths must flow through repro.rng "
                    "seeded streams",
                )
            elif dotted in _ENV_READS:
                yield self.violation(
                    info.ctx,
                    call,
                    f"environment read {dotted}() {where}: route runtime "
                    "knobs through config so they land in the fingerprint",
                )
        yield from self._scan_body(info, where)

    def _scan_body(self, info: FunctionInfo, where: str) -> Iterator[Violation]:
        set_locals = self._set_locals(info)
        for node in iter_own_nodes(info.node):
            if isinstance(node, ast.Subscript) and self._is_os_environ(
                info, node.value
            ):
                yield self.violation(
                    info.ctx,
                    node,
                    f"os.environ[...] read {where}: route runtime knobs "
                    "through config so they land in the fingerprint",
                )
            elif isinstance(node, ast.For) and self._is_set_expr(
                info, node.iter, set_locals
            ):
                yield self.violation(
                    info.ctx,
                    node,
                    f"iteration over an unordered set {where}: wrap in "
                    "sorted(...) so element order cannot leak into the "
                    "payload",
                )
            elif isinstance(node, ast.Call) and self._consumes_set_order(
                info, node, set_locals
            ):
                yield self.violation(
                    info.ctx,
                    node,
                    f"set materialised in iteration order {where}: wrap "
                    "in sorted(...) so element order cannot leak into "
                    "the payload",
                )

    @staticmethod
    def _is_os_environ(info: FunctionInfo, expr: ast.expr) -> bool:
        return info.ctx.imports.resolve(expr) == "os.environ"

    @classmethod
    def _set_locals(cls, info: FunctionInfo) -> frozenset[str]:
        """Local names whose every plain binding in this function is a
        set expression — the one-hop data-flow that lets
        ``seen = {...}; for k in seen:`` be flagged like the literal."""
        set_bound: set[str] = set()
        other_bound: set[str] = set()
        for node in iter_own_nodes(info.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if cls._is_set_expr(info, node.value, frozenset()):
                    set_bound.add(target.id)
                else:
                    other_bound.add(target.id)
        return frozenset(set_bound - other_bound)

    @staticmethod
    def _is_set_expr(
        info: FunctionInfo, expr: ast.expr, set_locals: frozenset[str]
    ) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name) and expr.id in set_locals:
            return True
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")
            # a local alias shadowing the builtin resolves elsewhere
            and expr.func.id not in info.ctx.imports.aliases
        ):
            return True
        return False

    def _consumes_set_order(
        self, info: FunctionInfo, call: ast.Call, set_locals: frozenset[str]
    ) -> bool:
        if not (
            isinstance(call.func, ast.Name)
            and call.func.id in _ORDER_SENSITIVE_CONSUMERS
            and call.func.id not in info.ctx.imports.aliases
        ):
            if not (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "join"
            ):
                return False
        return len(call.args) == 1 and self._is_set_expr(
            info, call.args[0], set_locals
        )
