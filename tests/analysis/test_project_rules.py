"""Tests for the four project-wide / registry rules against seeded fixtures.

Fixture modules live in ``tests/analysis/fixtures/`` and carry exactly
one deliberate defect each. They are loaded with a fake ``src/repro/...``
relpath so the product-path gating treats them as shipped code.
"""

import ast
import textwrap
from pathlib import Path

from repro.analysis.core import FileContext
from repro.analysis.graph import ProjectContext
from repro.analysis.rules.determinism import FingerprintPurityRule
from repro.analysis.rules.envelope import ErrorEnvelopeRule
from repro.analysis.rules.obs import ObservabilityNameRule
from repro.analysis.rules.rng import KernelRngRule
from repro.analysis.rules.threading import LockDisciplineRule
from repro.analysis.sarif import fingerprint_all

FIXTURES = Path(__file__).parent / "fixtures"


def ctx_from_source(source: str, relpath: str) -> FileContext:
    src = textwrap.dedent(source)
    return FileContext(
        path=Path(relpath),
        relpath=relpath,
        source=src,
        tree=ast.parse(src),
    )


def ctx_from_fixture(name: str, relpath: str) -> FileContext:
    source = (FIXTURES / name).read_text()
    return FileContext(
        path=FIXTURES / name,
        relpath=relpath,
        source=source,
        tree=ast.parse(source),
    )


def run_project(rule, *contexts: FileContext):
    return list(rule.run_project(ProjectContext(contexts)))


def run_file(rule, ctx: FileContext):
    return list(rule.run(ctx))


class TestLockDiscipline:
    def fixture_ctx(self) -> FileContext:
        return ctx_from_fixture("race.py", "src/repro/parallel/race.py")

    def test_exactly_one_finding(self):
        violations = run_project(LockDisciplineRule(), self.fixture_ctx())
        assert len(violations) == 1
        (v,) = violations
        assert v.rule == "THR001"
        assert "SharedCounter.total" in v.message
        assert "reset()" in v.message

    def test_fingerprint_stable_across_line_drift(self):
        before = run_project(LockDisciplineRule(), self.fixture_ctx())
        shifted = self.fixture_ctx()
        drifted = ctx_from_source(
            "# a leading comment shifts every line number\n"
            + shifted.source,
            shifted.relpath,
        )
        after = run_project(LockDisciplineRule(), drifted)
        assert fingerprint_all(before) == fingerprint_all(after)

    def test_noqa_on_offending_line_silences(self):
        base = self.fixture_ctx()
        patched = base.source.replace(
            "self.total = 0  # the seeded race: no lock held",
            "self.total = 0  # repro: noqa[THR001] - reset is "
            "documented as caller-synchronised",
        )
        assert patched != base.source
        ctx = ctx_from_source(patched, base.relpath)
        assert run_project(LockDisciplineRule(), ctx) == []

    def test_init_only_writes_are_exempt(self):
        ctx = ctx_from_source(
            """
            import threading

            class Frozen:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.config = {}

                def read(self):
                    with self._lock:
                        return dict(self.config)
            """,
            "src/repro/parallel/frozen.py",
        )
        assert run_project(LockDisciplineRule(), ctx) == []

    def test_lockless_class_not_flagged(self):
        ctx = ctx_from_source(
            """
            class Plain:
                def __init__(self):
                    self.n = 0

                def bump(self):
                    self.n += 1
            """,
            "src/repro/parallel/plain.py",
        )
        assert run_project(LockDisciplineRule(), ctx) == []

    def test_test_paths_skipped(self):
        ctx = ctx_from_fixture("race.py", "tests/analysis/fixtures/race.py")
        assert run_project(LockDisciplineRule(), ctx) == []


class TestFingerprintPurity:
    def fixture_ctx(self) -> FileContext:
        return ctx_from_fixture(
            "impure_stage.py", "src/repro/pipeline/broken.py"
        )

    def test_exactly_one_finding(self):
        violations = run_project(FingerprintPurityRule(), self.fixture_ctx())
        assert len(violations) == 1
        (v,) = violations
        assert v.rule == "DET001"
        assert "time.time" in v.message
        assert "reachable from" in v.message
        assert "BrokenStage.compute" in v.message

    def test_fingerprint_stable_across_line_drift(self):
        before = run_project(FingerprintPurityRule(), self.fixture_ctx())
        base = self.fixture_ctx()
        drifted = ctx_from_source(
            "# a leading comment shifts every line number\n" + base.source,
            base.relpath,
        )
        after = run_project(FingerprintPurityRule(), drifted)
        assert fingerprint_all(before) == fingerprint_all(after)

    def test_clean_stage_passes(self):
        ctx = ctx_from_source(
            """
            from repro.artifacts.stage import Stage

            class CleanStage(Stage):
                name = "clean-stage"

                def compute(self, config, inputs, rng):
                    return {"value": float(rng.random())}
            """,
            "src/repro/pipeline/clean.py",
        )
        assert run_project(FingerprintPurityRule(), ctx) == []

    def test_sorted_set_iteration_is_fine(self):
        ctx = ctx_from_source(
            """
            from repro.artifacts.stage import Stage

            class SetStage(Stage):
                name = "set-stage"

                def compute(self, config, inputs, rng):
                    seen = {"a", "b"}
                    return {"keys": [k for k in sorted(seen)]}
            """,
            "src/repro/pipeline/sets.py",
        )
        assert run_project(FingerprintPurityRule(), ctx) == []

    def test_unsorted_set_into_payload_flagged(self):
        ctx = ctx_from_source(
            """
            from repro.artifacts.stage import Stage

            class SetStage(Stage):
                name = "set-stage"

                def compute(self, config, inputs, rng):
                    seen = {"a", "b"}
                    out = []
                    for k in seen:
                        out.append(k)
                    return {"keys": out}
            """,
            "src/repro/pipeline/sets.py",
        )
        violations = run_project(FingerprintPurityRule(), ctx)
        assert [v.rule for v in violations] == ["DET001"]
        assert "unordered set" in violations[0].message

    def test_fingerprint_helpers_are_purity_roots(self):
        """repro.artifacts.fingerprint is a root module: a wall-clock read
        in a fingerprint helper (even an internal one with no Stage in
        sight) must be flagged — fingerprints key the artifact cache."""
        ctx = ctx_from_fixture(
            "impure_fingerprint.py", "src/repro/artifacts/fingerprint.py"
        )
        violations = run_project(FingerprintPurityRule(), ctx)
        assert len(violations) == 1
        (v,) = violations
        assert v.rule == "DET001"
        assert "time.time" in v.message
        assert "_stamp" in v.message

    def test_clean_fingerprint_module_passes(self):
        ctx = ctx_from_source(
            """
            import hashlib

            def fingerprint_of(data):
                return hashlib.sha256(data).hexdigest()
            """,
            "src/repro/artifacts/fingerprint.py",
        )
        assert run_project(FingerprintPurityRule(), ctx) == []

    def test_wall_clock_off_the_compute_path_is_fine(self):
        # The hazard exists in the module but nothing reachable from
        # compute() calls it: DET001 must stay quiet.
        ctx = ctx_from_source(
            """
            import time

            from repro.artifacts.stage import Stage

            def _debug_stamp():
                return time.time()

            class QuietStage(Stage):
                name = "quiet-stage"

                def compute(self, config, inputs, rng):
                    return {"value": float(rng.random())}
            """,
            "src/repro/pipeline/quiet.py",
        )
        assert run_project(FingerprintPurityRule(), ctx) == []


class TestObservabilityNames:
    def fixture_ctx(self) -> FileContext:
        return ctx_from_fixture("typo_metric.py", "src/repro/cache_obs.py")

    def test_exactly_one_finding_with_hint(self):
        violations = run_file(ObservabilityNameRule(), self.fixture_ctx())
        assert len(violations) == 1
        (v,) = violations
        assert v.rule == "OBS001"
        assert "'cache.hti'" in v.message
        assert "'cache.hit'" in v.message  # the typo hint

    def test_fingerprint_stable_across_line_drift(self):
        before = run_file(ObservabilityNameRule(), self.fixture_ctx())
        base = self.fixture_ctx()
        drifted = ctx_from_source(
            "# a leading comment shifts every line number\n" + base.source,
            base.relpath,
        )
        after = run_file(ObservabilityNameRule(), drifted)
        assert fingerprint_all(before) == fingerprint_all(after)

    def test_registered_span_passes(self):
        ctx = ctx_from_source(
            """
            from repro.obs import trace

            def work():
                with trace.span("serve.request"):
                    return 1
            """,
            "src/repro/serve/work.py",
        )
        assert run_file(ObservabilityNameRule(), ctx) == []

    def test_unregistered_span_flagged(self):
        ctx = ctx_from_source(
            """
            from repro.obs import trace

            def work():
                with trace.span("serve.reqeust"):
                    return 1
            """,
            "src/repro/serve/work.py",
        )
        violations = run_file(ObservabilityNameRule(), ctx)
        assert [v.rule for v in violations] == ["OBS001"]

    def test_dynamic_names_ignored(self):
        ctx = ctx_from_source(
            """
            from repro.obs import trace

            def work(stage_name):
                with trace.span(stage_name):
                    return 1
            """,
            "src/repro/serve/work.py",
        )
        assert run_file(ObservabilityNameRule(), ctx) == []

    def test_noqa_on_statement_start_silences_multiline_call(self):
        # Regression for statement-anchored suppression: the bad literal
        # sits on a continuation line, the noqa on the statement start.
        ctx = ctx_from_source(
            """
            from repro.obs import metrics

            def record():
                metrics.registry.counter(  # repro: noqa[OBS001] - probe
                    "cache.hti"
                ).inc()
            """,
            "src/repro/cache_obs.py",
        )
        assert run_file(ObservabilityNameRule(), ctx) == []

    def test_test_paths_skipped(self):
        ctx = ctx_from_fixture(
            "typo_metric.py", "tests/analysis/fixtures/typo_metric.py"
        )
        assert run_file(ObservabilityNameRule(), ctx) == []


KERNEL_MINTS_STREAM = """
from repro.core.kernels import TokenKernel
from repro.rng import ensure_rng

class ShadyKernel(TokenKernel):
    def sweep(self, generator, y=None):
        local = ensure_rng(0)  # the seeded defect
        return local.random()
"""


class TestKernelRng:
    def test_stream_minting_inside_kernel_flagged(self):
        ctx = ctx_from_source(
            KERNEL_MINTS_STREAM, "src/repro/core/shady.py"
        )
        violations = run_project(KernelRngRule(), ctx)
        assert [v.rule for v in violations] == ["RNG002"]
        assert "ensure_rng" in violations[0].message
        assert "ShadyKernel.sweep" in violations[0].message

    def test_minting_via_reachable_helper_flagged(self):
        ctx = ctx_from_source(
            """
            from repro.core.kernels import TokenKernel
            from repro.rng import derive

            def _fresh_stream():
                return derive(0, "kernel")

            class SneakyKernel(TokenKernel):
                def sweep(self, generator, y=None):
                    return _fresh_stream().random()
            """,
            "src/repro/core/sneaky.py",
        )
        violations = run_project(KernelRngRule(), ctx)
        assert [v.rule for v in violations] == ["RNG002"]
        assert "reachable from" in violations[0].message

    def test_generator_parameter_use_passes(self):
        ctx = ctx_from_source(
            """
            from repro.core.kernels import TokenKernel

            class HonestKernel(TokenKernel):
                def sweep(self, generator, y=None):
                    return generator.random()
            """,
            "src/repro/core/honest.py",
        )
        assert run_project(KernelRngRule(), ctx) == []

    def test_minting_outside_kernels_not_this_rules_problem(self):
        ctx = ctx_from_source(
            """
            from repro.rng import ensure_rng

            def seed_everything():
                return ensure_rng(0).random()
            """,
            "src/repro/pipeline/seeds.py",
        )
        assert run_project(KernelRngRule(), ctx) == []

    def test_shipped_kernel_layer_is_clean(self):
        root = Path(__file__).resolve().parents[2]
        rel = "src/repro/core/kernels.py"
        source = (root / rel).read_text()
        ctx = FileContext(
            path=root / rel, relpath=rel, source=source,
            tree=ast.parse(source),
        )
        assert run_project(KernelRngRule(), ctx) == []


ERRORS_SOURCE = """
class ReproError(Exception):
    pass

class AlphaError(ReproError):
    pass

class BetaError(ReproError):
    pass
"""

APP_MAPS_ALPHA_ONLY = """
from repro.errors import AlphaError, ReproError

def status_of(exc: ReproError) -> int:
    if isinstance(exc, AlphaError):
        return 400
    return 500
"""


class TestErrorEnvelope:
    def test_unmapped_family_flagged(self):
        violations = run_project(
            ErrorEnvelopeRule(),
            ctx_from_source(ERRORS_SOURCE, "src/repro/errors.py"),
            ctx_from_source(APP_MAPS_ALPHA_ONLY, "src/repro/serve/app.py"),
        )
        assert len(violations) == 1
        (v,) = violations
        assert v.rule == "EXC002"
        assert "BetaError" in v.message
        assert v.path == "src/repro/errors.py"

    def test_status_table_counts_as_mapping(self):
        app = """
        from repro.errors import AlphaError, BetaError, ReproError

        _STATUS_BY_FAMILY = (
            (AlphaError, 400),
            (BetaError, 500),
        )

        def status_of(exc: ReproError) -> int:
            for family, status in _STATUS_BY_FAMILY:
                if isinstance(exc, family):
                    return status
            return 500
        """
        violations = run_project(
            ErrorEnvelopeRule(),
            ctx_from_source(ERRORS_SOURCE, "src/repro/errors.py"),
            ctx_from_source(app, "src/repro/serve/app.py"),
        )
        assert violations == []

    def test_bare_error_return_flagged(self):
        handler = """
        def handle(payload):
            if not payload:
                return 400, {"detail": "empty"}
            return 200, {"ok": True}
        """
        violations = run_project(
            ErrorEnvelopeRule(),
            ctx_from_source(handler, "src/repro/serve/handlers.py"),
        )
        assert len(violations) == 1
        assert "error_body" in violations[0].message

    def test_error_body_envelope_passes(self):
        handler = """
        from repro.serve.schemas import error_body

        def handle(payload):
            if not payload:
                return 400, error_body("bad_request", "empty payload")
            return 200, {"ok": True}
        """
        violations = run_project(
            ErrorEnvelopeRule(),
            ctx_from_source(handler, "src/repro/serve/handlers.py"),
        )
        assert violations == []

    def test_success_tuples_ignored(self):
        handler = """
        def handle(payload):
            return 200, {"ok": True}
        """
        violations = run_project(
            ErrorEnvelopeRule(),
            ctx_from_source(handler, "src/repro/serve/handlers.py"),
        )
        assert violations == []

    def test_shipped_serve_layer_is_complete(self):
        # The real errors.py + app.py must cross-reference cleanly.
        root = Path(__file__).resolve().parents[2]
        contexts = []
        for rel in (
            "src/repro/errors.py",
            "src/repro/serve/app.py",
            "src/repro/serve/batch.py",
            "src/repro/serve/schemas.py",
        ):
            source = (root / rel).read_text()
            contexts.append(
                FileContext(
                    path=root / rel,
                    relpath=rel,
                    source=source,
                    tree=ast.parse(source),
                )
            )
        assert run_project(ErrorEnvelopeRule(), *contexts) == []
