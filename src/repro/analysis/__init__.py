"""Project-specific static analysis for the ``repro`` codebase.

The determinism, unit-safety and numerical-stability guarantees this
package makes are invariants of *discipline*, not of any one function:
all randomness flows through :mod:`repro.rng` (RNG001), all matrix
inversions through the guarded helpers in :mod:`repro.core.linalg`
(NUM001), all −log transforms are clamped (NUM002), public surfaces
raise only :class:`~repro.errors.ReproError` subclasses (EXC001), and
parallel tasks are picklable with explicit RNG streams (PAR001). This
package enforces those invariants mechanically, so refactors in future
perf/scale PRs cannot silently erode them.

On top of the per-file rules sits a small data-flow engine
(:mod:`repro.analysis.graph`): a module import graph, a per-function
call graph and a class attribute-access index feed the project-wide
rules — THR001 (lock discipline in concurrent classes), DET001
(fingerprint purity: no wall-clock/entropy/env/set-order on paths
reachable from ``Stage.compute``), OBS001 (span/metric names must be
registered in :mod:`repro.obs.names`) and EXC002 (every error family
mapped in ``status_of``; serve error returns use the uniform
envelope).

Usage::

    python -m repro.analysis [paths...] [--format json|sarif]
    repro lint [paths...]

Any finding fails the run. A finding is accepted only by an inline
``# repro: noqa[RULE] - reason`` on its line; see
``docs/static-analysis.md``.
"""

from repro.analysis.core import (
    FileContext,
    ImportTable,
    Rule,
    SuppressionIndex,
    Violation,
)
from repro.analysis.graph import ProjectContext
from repro.analysis.rules import RULE_CLASSES, default_rules, rules_by_code
from repro.analysis.runner import (
    RunResult,
    analyze_paths,
    discover,
    render_json,
    render_text,
)
from repro.analysis.sarif import fingerprint, fingerprint_all, render_sarif

__all__ = [
    "FileContext",
    "ImportTable",
    "ProjectContext",
    "RULE_CLASSES",
    "Rule",
    "RunResult",
    "SuppressionIndex",
    "Violation",
    "analyze_paths",
    "default_rules",
    "discover",
    "fingerprint",
    "fingerprint_all",
    "render_json",
    "render_sarif",
    "render_text",
    "rules_by_code",
]
