"""RNG001/RNG002 — all randomness flows through :mod:`repro.rng`.

The guarantee that a fit is bit-identical for any worker count holds
only if every random draw comes from a generator that was seeded and
spawned through ``repro.rng`` (or passed in as an explicit
``Generator`` argument). A single ``np.random.default_rng(...)`` or
stdlib ``random.random()`` buried in a helper silently re-seeds
outside the experiment's stream and breaks bit-reproducibility across
runs and worker counts.

RNG002 tightens the contract inside the token-kernel layer: a
``TokenKernel`` draws randomness **only** from the ``Generator`` its
caller passes into ``sweep()``. Minting a fresh stream inside a kernel
(``ensure_rng``/``spawn``/``derive``) would decouple the kernel's draw
sequence from the sampler's seeded chain, so batched, restarted and
parallel runs would stop replaying bit-for-bit even though every draw
still "goes through repro.rng".
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.core import FileContext, Rule, Violation
from repro.analysis.graph import (
    ProjectContext,
    is_product_path,
)

#: Calling *anything* under these prefixes creates or drives a stream
#: outside repro.rng. Attribute access (``rng: np.random.Generator``
#: annotations, ``isinstance`` checks) is not a call and stays legal.
_BANNED_PREFIXES = ("numpy.random.", "random.")

#: ``random`` the *module* being called is impossible; these are the
#: stdlib module's callables that matter in practice, but any call
#: resolving into the module is flagged, so the set is documentation.
_STDLIB_EXAMPLES = ("random.seed", "random.random", "random.shuffle")


class RngDisciplineRule(Rule):
    code: ClassVar[str] = "RNG001"
    name: ClassVar[str] = "rng-discipline"
    severity: ClassVar[str] = "error"
    description: ClassVar[str] = (
        "no direct numpy.random.* / stdlib random.* calls outside "
        "repro/rng.py; obtain streams via repro.rng.ensure_rng/spawn/"
        "derive or accept an explicit Generator parameter"
    )
    exempt_suffixes: ClassVar[tuple[str, ...]] = ("repro/rng.py",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.imports.resolve(node.func)
            if target is None:
                continue
            if any(target.startswith(p) for p in _BANNED_PREFIXES):
                yield self.violation(
                    ctx,
                    node,
                    f"direct call to {target} bypasses repro.rng; route "
                    "randomness through repro.rng.ensure_rng/spawn/derive "
                    "or an explicit Generator parameter",
                )


#: Stream factories that are fine everywhere *except* inside a kernel:
#: the kernel contract is that the caller owns seeding.
_STREAM_FACTORIES = frozenset(
    {"repro.rng.ensure_rng", "repro.rng.spawn", "repro.rng.derive"}
)


class KernelRngRule(Rule):
    code: ClassVar[str] = "RNG002"
    name: ClassVar[str] = "kernel-rng-discipline"
    severity: ClassVar[str] = "error"
    project_wide: ClassVar[bool] = True
    description: ClassVar[str] = (
        "TokenKernel code draws randomness only from the Generator "
        "passed into sweep(); minting streams via repro.rng "
        "ensure_rng/spawn/derive inside a kernel re-seeds mid-chain and "
        "breaks batched/restart bit-reproducibility"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        root_of = project.reachable_from(self._roots(project))
        for qualname in sorted(root_of):
            info = project.functions[qualname]
            if not is_product_path(info.ctx.relpath):
                continue
            root = root_of[qualname]
            where = (
                f"in {info.qualname}"
                if info.qualname == root
                else f"in {info.qualname}, reachable from {root}"
            )
            for dotted, call in info.external_calls:
                if dotted in _STREAM_FACTORIES:
                    yield self.violation(
                        info.ctx,
                        call,
                        f"kernel stream minting: {dotted}() {where} — "
                        "kernels must draw only from the Generator their "
                        "caller passes into sweep(), or batched/restart "
                        "runs stop replaying bit-for-bit",
                    )

    @staticmethod
    def _roots(project: ProjectContext) -> list[str]:
        """Every method of ``TokenKernel`` and of its subclasses."""
        kernel_classes = {
            cls.qualname
            for cls in project.classes.values()
            if cls.name == "TokenKernel" or "TokenKernel" in cls.bases
        }
        return sorted(
            qualname
            for qualname in project.functions
            if qualname.rsplit(".", 1)[0] in kernel_classes
        )
