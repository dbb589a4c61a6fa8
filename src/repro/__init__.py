"""repro — reproduction of "Detecting Sensory Textures with Rheological
Characteristics from Recipe Sharing Sites" (Uehara & Mochihashi, ICDE
2022).

Quickstart::

    from repro import run_experiment, quick_config
    from repro.pipeline.tables import table2a_rows
    from repro.pipeline.reporting import render_table2a

    result = run_experiment(quick_config())
    print(render_table2a(table2a_rows(result)))

Subpackages: :mod:`repro.core` (the joint topic model),
:mod:`repro.lexicon` (texture dictionary), :mod:`repro.units`
(quantity normalisation), :mod:`repro.rheology` (instrument + studies),
:mod:`repro.corpus` (recipe documents/features), :mod:`repro.synth`
(Cookpad simulator), :mod:`repro.embedding` (word2vec),
:mod:`repro.eval` (metrics) and :mod:`repro.pipeline` (end-to-end).
"""

from repro.artifacts import ArtifactStore
from repro.core import (
    BayesianGaussianMixture,
    JointModelConfig,
    JointTextureTopicModel,
    LatentDirichletAllocation,
    TopicLinker,
)
from repro.core.collapsed import CollapsedJointModel
from repro.core.estimator import TextureEstimator
from repro.core.search import TextureSearch
from repro.core.variational import VariationalConfig, VariationalJointModel
from repro.eval.rules import RuleMiner
from repro.persistence import load_model, save_model
from repro.corpus import Recipe
from repro.lexicon import TextureDictionary, build_dictionary
from repro.pipeline import (
    DatasetBuilder,
    ExperimentConfig,
    ExperimentResult,
    TextureDataset,
    run_experiment,
)
from repro.pipeline.experiment import quick_config
from repro.rheology import Composition, GelSystemModel, Rheometer, TextureProfile
from repro.synth import CorpusGenerator, CorpusPreset, DEFAULT_PRESET

__version__ = "1.0.0"

__all__ = [
    "ArtifactStore",
    "JointTextureTopicModel",
    "JointModelConfig",
    "CollapsedJointModel",
    "VariationalJointModel",
    "VariationalConfig",
    "LatentDirichletAllocation",
    "BayesianGaussianMixture",
    "TopicLinker",
    "TextureEstimator",
    "TextureSearch",
    "RuleMiner",
    "save_model",
    "load_model",
    "TextureDictionary",
    "build_dictionary",
    "Recipe",
    "TextureProfile",
    "GelSystemModel",
    "Rheometer",
    "Composition",
    "CorpusGenerator",
    "CorpusPreset",
    "DEFAULT_PRESET",
    "DatasetBuilder",
    "TextureDataset",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "quick_config",
    "__version__",
]
