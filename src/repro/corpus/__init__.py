"""Recipe corpus substrate: the "recipe sharing site" side of the paper.

* :mod:`repro.corpus.recipe` — the :class:`Recipe` / :class:`Ingredient`
  documents;
* :mod:`repro.corpus.tokenizer` — description tokenisation;
* :mod:`repro.corpus.extraction` — texture-term spotting against the
  dictionary;
* :mod:`repro.corpus.features` — the paper's per-recipe features: texture
  term frequencies plus −log gel / emulsion concentration vectors;
* :mod:`repro.corpus.filters` — the Section IV-A dataset filters
  (unrelated-ingredient share, texture-term presence, gel presence).
"""

from repro.corpus.extraction import TextureTermExtractor
from repro.corpus.features import RecipeFeatures, build_features
from repro.corpus.filters import DatasetFilter
from repro.corpus.recipe import Ingredient, Recipe
from repro.corpus.tokenizer import Tokenizer

__all__ = [
    "Ingredient",
    "Recipe",
    "Tokenizer",
    "TextureTermExtractor",
    "RecipeFeatures",
    "build_features",
    "DatasetFilter",
]
