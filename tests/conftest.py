"""Shared fixtures.

Heavy objects (dictionary, synthetic corpus, fitted models) are session-
scoped: they are deterministic given their seeds, and most test modules
only read them.
"""

from __future__ import annotations

import pytest

from repro.core.joint_model import JointModelConfig, JointTextureTopicModel
from repro.lexicon.dictionary import build_dictionary
from repro.pipeline.dataset import DatasetBuilder
from repro.rheology.gel_system import GelSystemModel
from repro.synth.generator import CorpusGenerator
from repro.synth.presets import CorpusPreset

from repro.rng import ensure_rng


@pytest.fixture(scope="session")
def dictionary():
    """The 288-term texture dictionary."""
    return build_dictionary()


@pytest.fixture(scope="session")
def gel_model():
    """The Table-I-calibrated response surface."""
    return GelSystemModel()


@pytest.fixture(scope="session")
def tiny_corpus():
    """A small deterministic synthetic corpus (350 recipes)."""
    generator = CorpusGenerator(rng=123)
    return generator.generate(CorpusPreset(name="test", n_recipes=350))


@pytest.fixture(scope="session")
def tiny_dataset(tiny_corpus):
    """Featurised dataset from the tiny corpus (word2vec filter off for
    speed; the filter has its own tests)."""
    builder = DatasetBuilder(use_w2v_filter=False)
    return builder.build(tiny_corpus.recipes, rng=7)


@pytest.fixture(scope="session")
def fitted_joint(tiny_dataset):
    """A small fitted joint topic model over the tiny dataset."""
    config = JointModelConfig(n_topics=6, n_sweeps=60, burn_in=30, thin=3)
    model = JointTextureTopicModel(config)
    return model.fit(
        list(tiny_dataset.docs),
        tiny_dataset.gel_log,
        tiny_dataset.emulsion_log,
        tiny_dataset.vocab_size,
        rng=5,
    )


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return ensure_rng(0)
