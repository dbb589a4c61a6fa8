"""The experiment pipeline as explicit, individually cached stages.

The paper's pipeline is a strict DAG; each node below is a
:class:`~repro.artifacts.stage.Stage` with its own config slice, payload
serialiser and format version::

    synth-corpus ──┬─> gel-filter ──┐
                   └────────────────┴─> build-dataset ─> fit-model ─> build-linker

A stage's fingerprint folds in its upstream fingerprints, so editing any
:class:`~repro.pipeline.experiment.ExperimentConfig` knob invalidates
exactly the stages downstream of it: flipping ``use_log_transform``
refits the model and linker but keeps serving the corpus, filter and
dataset from disk.

All stages share one RNG stream in pipeline order (the runner
threads generator state through cache hits), which keeps the staged
pipeline bit-identical to the historical monolithic
``run_experiment`` — and bit-identical between cached and fresh runs.

The whole corpus is held in memory. CI holds a 50k-recipe run and the
200k-recipe large-corpus bench under the committed RSS ceilings in
``benchmarks/memory_ceiling.json``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.artifacts.fingerprint import fingerprint_of
from repro.artifacts.runner import run_pipeline
from repro.artifacts.stage import Stage
from repro.artifacts.store import ArtifactStore
from repro.core.linkage import TopicLinker
from repro.lexicon.dictionary import build_dictionary
from repro.persistence import (
    load_corpus,
    load_dataset,
    load_excluded_terms,
    load_linker,
    load_model,
    save_corpus,
    save_dataset,
    save_excluded_terms,
    save_linker,
    save_model,
)
from repro.pipeline.dataset import DatasetBuilder, TextureDataset
from repro.rng import ensure_rng
from repro.synth.generator import CorpusGenerator, SyntheticCorpus

#: Stage names, in pipeline order.
SYNTH_CORPUS = "synth-corpus"
GEL_FILTER = "gel-filter"
BUILD_DATASET = "build-dataset"
FIT_MODEL = "fit-model"
BUILD_LINKER = "build-linker"

def make_model(config: Any) -> Any:
    """Instantiate the configured inference method."""
    from repro.core.joint_model import JointTextureTopicModel

    if config.inference == "gibbs":
        return JointTextureTopicModel(config.model)
    if config.inference == "collapsed":
        from repro.core.collapsed import CollapsedJointModel

        return CollapsedJointModel(config.model)
    if config.inference == "vb":
        from repro.core.variational import VariationalConfig, VariationalJointModel

        return VariationalJointModel(
            VariationalConfig(
                n_topics=config.model.n_topics,
                alpha=config.model.alpha,
                gamma=config.model.gamma,
                kappa=config.model.kappa,
            )
        )
    from repro.errors import ExperimentError

    raise ExperimentError(f"unknown inference method {config.inference!r}")


class SynthCorpusStage(Stage[SyntheticCorpus]):
    """Generate the synthetic recipe-sharing-site corpus."""

    name = SYNTH_CORPUS
    version = 1
    upstream = ()

    def config_of(self, config: Any) -> Mapping[str, Any]:
        return {"preset": config.preset, "seed": config.seed}

    def compute(
        self, config: Any, inputs: Mapping[str, Any], rng: np.random.Generator
    ) -> SyntheticCorpus:
        return CorpusGenerator(rng=rng).generate(config.preset)

    def save(self, payload: SyntheticCorpus, directory: Path) -> None:
        save_corpus(payload, directory / "corpus.json.gz")

    def load(self, directory: Path) -> SyntheticCorpus:
        return load_corpus(directory / "corpus.json.gz")


class GelFilterStage(Stage[frozenset]):
    """Section III-A word2vec gel-relatedness filtering."""

    name = GEL_FILTER
    version = 1
    upstream = (SYNTH_CORPUS,)

    def config_of(self, config: Any) -> Mapping[str, Any]:
        from repro.pipeline.dataset import DEFAULT_W2V_CONFIG

        return {
            "use_w2v_filter": config.use_w2v_filter,
            "w2v": DEFAULT_W2V_CONFIG,
        }

    def compute(
        self, config: Any, inputs: Mapping[str, Any], rng: np.random.Generator
    ) -> frozenset:
        corpus: SyntheticCorpus = inputs[SYNTH_CORPUS]
        builder = DatasetBuilder(
            dictionary=build_dictionary(), use_w2v_filter=config.use_w2v_filter
        )
        return builder.excluded_terms(corpus.recipes, rng=rng)

    def save(self, payload: frozenset, directory: Path) -> None:
        save_excluded_terms(payload, directory / "excluded.json")

    def load(self, directory: Path) -> frozenset:
        return load_excluded_terms(directory / "excluded.json")


class BuildDatasetStage(Stage[TextureDataset]):
    """Section IV-A featurisation and funnel filtering."""

    name = BUILD_DATASET
    version = 1
    upstream = (SYNTH_CORPUS, GEL_FILTER)

    def config_of(self, config: Any) -> Mapping[str, Any]:
        return {}

    def compute(
        self, config: Any, inputs: Mapping[str, Any], rng: np.random.Generator
    ) -> TextureDataset:
        corpus: SyntheticCorpus = inputs[SYNTH_CORPUS]
        builder = DatasetBuilder(
            dictionary=build_dictionary(), use_w2v_filter=config.use_w2v_filter
        )
        return builder.build(
            corpus.recipes, rng=rng, excluded=inputs[GEL_FILTER]
        )

    def save(self, payload: TextureDataset, directory: Path) -> None:
        save_dataset(payload, directory / "dataset.npz")

    def load(self, directory: Path) -> TextureDataset:
        return load_dataset(directory / "dataset.npz")


class FitModelStage(Stage[Any]):
    """Fit the joint texture topic model (equations (2)-(5))."""

    name = FIT_MODEL
    version = 1
    upstream = (BUILD_DATASET,)

    def config_of(self, config: Any) -> Mapping[str, Any]:
        return {
            "model": config.model,
            "inference": config.inference,
            "use_log_transform": config.use_log_transform,
        }

    def compute(
        self, config: Any, inputs: Mapping[str, Any], rng: np.random.Generator
    ) -> Any:
        dataset: TextureDataset = inputs[BUILD_DATASET]
        if config.use_log_transform:
            gels, emulsions = dataset.gel_log, dataset.emulsion_log
        else:
            gels, emulsions = dataset.gel_raw, dataset.emulsion_raw
        model = make_model(config)
        model.fit(
            list(dataset.docs), gels, emulsions, dataset.vocab_size, rng=rng
        )
        return model

    def save(self, payload: Any, directory: Path) -> None:
        save_model(payload, directory / "model.npz")

    def load(self, directory: Path) -> Any:
        model, _ = load_model(directory / "model.npz")
        return model


class BuildLinkerStage(Stage[TopicLinker]):
    """KL linkage from the fitted topics to the empirical studies."""

    name = BUILD_LINKER
    version = 1
    upstream = (FIT_MODEL,)

    def config_of(self, config: Any) -> Mapping[str, Any]:
        return {"point_sigma": config.point_sigma}

    def compute(
        self, config: Any, inputs: Mapping[str, Any], rng: np.random.Generator
    ) -> TopicLinker:
        return TopicLinker(inputs[FIT_MODEL], point_sigma=config.point_sigma)

    def save(self, payload: TopicLinker, directory: Path) -> None:
        save_linker(payload, directory / "linker.npz")

    def load(self, directory: Path) -> TopicLinker:
        return load_linker(directory / "linker.npz")


#: The experiment pipeline, in execution order.
PIPELINE: tuple[Stage[Any], ...] = (
    SynthCorpusStage(),
    GelFilterStage(),
    BuildDatasetStage(),
    FitModelStage(),
    BuildLinkerStage(),
)


def experiment_fingerprint(config: Any) -> str:
    """Content fingerprint of a full experiment configuration.

    Derived generically from ``dataclasses.fields`` (recursively through
    the preset and model configs), so any newly added field perturbs the
    fingerprint instead of silently colliding cache entries.
    """
    return fingerprint_of(config)


def run_staged(
    config: Any, store: ArtifactStore | None = None
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run the staged pipeline, serving repeats from ``store``.

    Returns ``(payloads, run_manifest)``; payloads are keyed by stage
    name (:data:`SYNTH_CORPUS` … :data:`BUILD_LINKER`).
    """
    return run_pipeline(
        PIPELINE,
        config,
        ensure_rng(config.seed),
        store=store,
        seed=config.seed,
        experiment_fingerprint=experiment_fingerprint(config),
    )
