"""Shared serving fixtures.

One tiny fitted pipeline (the CI preset: 250 recipes, 20 sweeps,
seed 3 — L1-cached per process by ``run_experiment``) backs every
serving test; engines over it are cheap because the bundle holds
references, not copies.
"""

from __future__ import annotations

import pytest

from repro.pipeline.experiment import quick_config, run_experiment
from repro.serve import FoldInConfig, InferenceEngine, ModelBundle


@pytest.fixture(scope="session")
def tiny_result():
    """The tiny fitted pipeline shared across serving tests."""
    return run_experiment(quick_config(250, 20, seed=3))


@pytest.fixture(scope="session")
def bundle(tiny_result):
    return ModelBundle.from_result(tiny_result)


@pytest.fixture(scope="session")
def engine(bundle):
    """A warm engine with short fold-in sweeps (tests favour speed)."""
    return InferenceEngine(bundle, FoldInConfig(n_sweeps=12))
