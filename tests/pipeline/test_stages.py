"""Tests for the staged pipeline and its on-disk artifact cache."""

import dataclasses

import numpy as np
import pytest

from repro.core.joint_model import JointModelConfig
from repro.pipeline import stages as stages_module
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
    PIPELINE,
    SYNTH_CORPUS,
)
from repro.synth.presets import CorpusPreset


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        preset=CorpusPreset(name="stagetest", n_recipes=200),
        model=JointModelConfig(n_topics=5, n_sweeps=20, burn_in=10, thin=2),
        seed=97,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


MODEL_ARRAYS = (
    "phi_",
    "theta_",
    "gel_means_",
    "gel_covs_",
    "emulsion_means_",
    "emulsion_covs_",
    "y_",
)


def assert_results_identical(a, b):
    for name in MODEL_ARRAYS:
        assert np.array_equal(getattr(a.model, name), getattr(b.model, name))
    assert a.model.log_likelihoods_ == b.model.log_likelihoods_
    assert np.array_equal(a.linker.gel_means, b.linker.gel_means)
    assert np.array_equal(a.linker.gel_covs, b.linker.gel_covs)
    assert a.dataset.vocabulary == b.dataset.vocabulary
    assert a.dataset.excluded_terms == b.dataset.excluded_terms
    assert np.array_equal(a.dataset.gel_log, b.dataset.gel_log)
    assert len(a.dataset.docs) == len(b.dataset.docs)
    for doc_a, doc_b in zip(a.dataset.docs, b.dataset.docs):
        assert np.array_equal(doc_a, doc_b)
    assert a.corpus.recipes == b.corpus.recipes
    assert a.corpus.truths == b.corpus.truths


class TestDiskCache:
    def test_cached_rerun_is_bit_identical(self, tmp_path):
        config = tiny_config()
        cold = run_experiment(config, cache_dir=tmp_path)
        clear_cache()
        warm = run_experiment(config, cache_dir=tmp_path)
        assert cold.provenance["misses"] == 5
        assert warm.provenance["hits"] == 5 and warm.provenance["misses"] == 0
        assert_results_identical(cold, warm)

    def test_warm_run_does_no_work(self, tmp_path, monkeypatch):
        """A fully warm cache must never invoke any stage's compute."""
        config = tiny_config()
        run_experiment(config, cache_dir=tmp_path)
        clear_cache()

        def boom(self, config, inputs, rng):
            raise AssertionError(f"stage {self.name} recomputed on warm cache")

        for stage in PIPELINE:
            monkeypatch.setattr(type(stage), "compute", boom)
        warm = run_experiment(config, cache_dir=tmp_path)
        assert warm.provenance["hits"] == 5
        assert warm.model.phi_ is not None

    def test_matches_uncached_run(self, tmp_path):
        config = tiny_config()
        cached = run_experiment(config, cache_dir=tmp_path)
        plain = run_experiment(config, use_cache=False)
        assert_results_identical(cached, plain)

    def test_in_process_memo_returns_same_object(self, tmp_path):
        config = tiny_config()
        first = run_experiment(config, cache_dir=tmp_path)
        assert run_experiment(config, cache_dir=tmp_path) is first


class TestInvalidation:
    def test_log_transform_flip_reuses_upstream(self, tmp_path):
        """Flipping use_log_transform refits only fit-model + linker."""
        base = run_experiment(tiny_config(), cache_dir=tmp_path)
        clear_cache()
        flipped = run_experiment(
            tiny_config(use_log_transform=False), cache_dir=tmp_path
        )
        before, after = base.provenance["stages"], flipped.provenance["stages"]
        for name in (SYNTH_CORPUS, GEL_FILTER, BUILD_DATASET):
            assert after[name]["hit"], name
            assert after[name]["fingerprint"] == before[name]["fingerprint"]
        for name in (FIT_MODEL, BUILD_LINKER):
            assert not after[name]["hit"], name
            assert after[name]["fingerprint"] != before[name]["fingerprint"]

    def test_point_sigma_change_refits_linker_only(self, tmp_path):
        base = run_experiment(tiny_config(), cache_dir=tmp_path)
        clear_cache()
        changed = run_experiment(
            tiny_config(point_sigma=0.5), cache_dir=tmp_path
        )
        assert changed.provenance["hits"] == 4
        assert not changed.provenance["stages"][BUILD_LINKER]["hit"]
        for name in MODEL_ARRAYS:
            assert np.array_equal(
                getattr(base.model, name), getattr(changed.model, name)
            )

    def test_seed_change_invalidates_everything(self, tmp_path):
        run_experiment(tiny_config(), cache_dir=tmp_path)
        clear_cache()
        reseeded = run_experiment(tiny_config(seed=98), cache_dir=tmp_path)
        assert reseeded.provenance["hits"] == 0

    def test_w2v_config_is_fingerprinted_and_trained(
        self, tmp_path, monkeypatch
    ):
        """The gel-filter stage fingerprints DEFAULT_W2V_CONFIG and its
        skip-gram model trains with that same config, so changing the
        constant refits everything downstream of the corpus."""
        from repro.embedding import gel_filter as gel_filter_module
        from repro.pipeline import dataset as dataset_module

        base = run_experiment(tiny_config(), cache_dir=tmp_path)
        clear_cache()
        default = dataset_module.DEFAULT_W2V_CONFIG
        patched = dataclasses.replace(default, epochs=default.epochs + 1)
        monkeypatch.setattr(dataset_module, "DEFAULT_W2V_CONFIG", patched)
        trained_with = []
        skipgram_model = gel_filter_module.SkipGramModel

        def recording_model(config):
            trained_with.append(config)
            return skipgram_model(config)

        monkeypatch.setattr(gel_filter_module, "SkipGramModel", recording_model)
        changed = run_experiment(tiny_config(), cache_dir=tmp_path)
        assert trained_with == [patched]
        before, after = base.provenance["stages"], changed.provenance["stages"]
        corpus_before, corpus_after = before[SYNTH_CORPUS], after[SYNTH_CORPUS]
        assert corpus_after["hit"]
        assert corpus_after["fingerprint"] == corpus_before["fingerprint"]
        for name in (GEL_FILTER, BUILD_DATASET, FIT_MODEL, BUILD_LINKER):
            assert not after[name]["hit"], name
            assert after[name]["fingerprint"] != before[name]["fingerprint"]


class TestCacheKey:
    def test_every_preset_field_perturbs_the_key(self):
        """cache_key must react to *every* CorpusPreset field.

        The old implementation hand-enumerated preset fields and silently
        ignored newly added ones; deriving the key from dataclasses.fields
        makes this loop pass for any future field too.
        """
        perturbed = {
            "name": "other",
            "n_recipes": 201,
            "archetype_weights": {"mousse": 1.0},
            "term_presence": 0.5,
            "extra_term_rate": 1.5,
            "topping_term_prob": 0.8,
            "profile_noise_sigma": 0.2,
            "sharpness": 5.0,
        }
        preset_fields = {f.name for f in dataclasses.fields(CorpusPreset)}
        assert set(perturbed) == preset_fields, (
            "new CorpusPreset field: add a perturbed value for it here"
        )
        base = tiny_config()
        for field_name, value in perturbed.items():
            changed = tiny_config(
                preset=dataclasses.replace(base.preset, **{field_name: value})
            )
            assert changed.cache_key() != base.cache_key(), field_name

    def test_every_experiment_field_perturbs_the_key(self):
        base = tiny_config()
        variants = dict(
            preset=CorpusPreset(name="v", n_recipes=300),
            model=JointModelConfig(n_topics=7),
            seed=123,
            use_w2v_filter=False,
            use_log_transform=False,
            point_sigma=0.9,
            inference="vb",
        )
        config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(variants) == config_fields
        for field_name, value in variants.items():
            changed = tiny_config(**{field_name: value})
            assert changed.cache_key() != base.cache_key(), field_name


    def test_worker_count_stays_out_of_every_key(self, tmp_path):
        """The worker count changes how a fit runs, never what it fits,
        so a cached run with another count is served from the store."""
        base = tiny_config()
        pooled = tiny_config(
            model=dataclasses.replace(base.model, n_workers=4)
        )
        assert pooled.cache_key() == base.cache_key()
        cold = run_experiment(base, cache_dir=tmp_path)
        clear_cache()
        warm = run_experiment(pooled, cache_dir=tmp_path)
        assert (
            warm.provenance["stages"][FIT_MODEL]["fingerprint"]
            == cold.provenance["stages"][FIT_MODEL]["fingerprint"]
        )
        assert warm.provenance["misses"] == 0


class TestStageDag:
    def test_pipeline_order_respects_upstream(self):
        seen = set()
        for stage in PIPELINE:
            assert set(stage.upstream) <= seen, stage.name
            seen.add(stage.name)

    def test_stage_names_unique(self):
        names = [stage.name for stage in PIPELINE]
        assert len(names) == len(set(names))

    def test_make_model_rejects_unknown(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            stages_module.make_model(tiny_config(inference="mcmc"))
