"""End-to-end observability wiring over the staged pipeline.

Runs the tiny experiment with tracing on and checks the contract the
trace exists to provide: every stage span lands in the trace AND its id
lands in the artifact manifests, per-sweep sampler events appear under
the fit, cache counters match the cold/warm hit pattern, and — the hard
invariant — tracing never perturbs the fitted model.
"""

import numpy as np
import pytest

from repro.core.joint_model import JointModelConfig
from repro.obs import metrics, trace
from repro.obs.export import read_trace, validate_trace
from repro.pipeline.experiment import (
    ExperimentConfig,
    clear_cache,
    run_experiment,
)
from repro.pipeline.stages import (
    BUILD_DATASET,
    BUILD_LINKER,
    FIT_MODEL,
    GEL_FILTER,
    SYNTH_CORPUS,
)
from repro.synth.presets import CorpusPreset

STAGE_NAMES = (SYNTH_CORPUS, GEL_FILTER, BUILD_DATASET, FIT_MODEL, BUILD_LINKER)


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        preset=CorpusPreset(name="obstest", n_recipes=150),
        model=JointModelConfig(n_topics=4, n_sweeps=12, burn_in=6, thin=2),
        seed=41,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_cache()
    trace.disable()
    metrics.registry.reset()
    yield
    clear_cache()
    trace.disable()
    metrics.registry.reset()


class TestTracedPipeline:
    def test_stage_spans_events_and_manifest_ids(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        trace.enable(trace_path)
        result = run_experiment(tiny_config(), cache_dir=tmp_path / "cache")
        trace.disable()

        records = read_trace(trace_path)
        validate_trace(records)
        spans = {r["name"]: r for r in records if r["kind"] == "span"}

        # all five stage spans, nested under the pipeline root
        run_span = spans["run-pipeline"]
        for name in STAGE_NAMES:
            assert name in spans, f"missing stage span {name}"
            assert spans[name]["parent_id"] == run_span["span_id"]
            assert spans[name]["attrs"]["kind"] == "stage"
            assert spans[name]["attrs"]["cache"] == "miss"

        # per-sweep sampler events under the fit
        sweeps = [
            r for r in records
            if r["kind"] == "event" and r["name"] == "sweep"
        ]
        assert len(sweeps) == 12
        assert all(s["attrs"]["model"] == "gibbs" for s in sweeps)
        assert all("tokens_per_sec" in s["attrs"] for s in sweeps)

        # stage span ids land in the run provenance and artifact manifests
        manifest = result.provenance
        assert manifest["span_id"] == run_span["span_id"]
        assert manifest["trace_id"] == run_span["trace_id"]
        for name in STAGE_NAMES:
            record = manifest["stages"][name]
            assert record["span_id"] == spans[name]["span_id"]
            assert record["trace_id"] == spans[name]["trace_id"]

    def test_cache_counters_match_cold_then_warm(self, tmp_path):
        config = tiny_config()
        run_experiment(config, cache_dir=tmp_path)
        cold = metrics.registry.snapshot()
        assert cold["cache.miss"]["value"] == 5
        assert "cache.hit" not in cold
        assert cold["cache.bytes_written"]["value"] > 0

        clear_cache()
        metrics.registry.reset()
        warm = run_experiment(config, cache_dir=tmp_path)
        snap = metrics.registry.snapshot()
        assert snap["cache.hit"]["value"] == 5
        assert "cache.miss" not in snap
        assert snap["cache.bytes_read"]["value"] > 0
        assert warm.provenance["hits"] == 5

    def test_untraced_manifest_has_no_span_ids(self, tmp_path):
        result = run_experiment(tiny_config(), cache_dir=tmp_path)
        manifest = result.provenance
        assert "span_id" not in manifest
        for record in manifest["stages"].values():
            assert "span_id" not in record

    def test_tracing_does_not_perturb_the_fit(self, tmp_path):
        config = tiny_config()
        untraced = run_experiment(config)
        clear_cache()
        trace.enable(tmp_path / "trace.jsonl")
        traced = run_experiment(config)
        trace.disable()
        assert untraced.model.log_likelihoods_ == traced.model.log_likelihoods_
        for name in ("phi_", "theta_", "y_", "gel_means_"):
            assert np.array_equal(
                getattr(untraced.model, name), getattr(traced.model, name)
            )
