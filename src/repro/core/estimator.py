"""Texture estimation for new recipes — the paper's motivating use case.

"This study aims to provide home cooking users with reliable information
of texture, thereby enabling to find their favorite recipes in more
suitable manner." (Section I.)

:class:`TextureEstimator` folds a *new* posted recipe into a fitted
joint topic model: the recipe is featurised exactly like the training
corpus, its topic posterior is computed from the fitted parameters
(no resampling), and the estimate combines

* the dominant topic's texture-term pattern (what the dish will feel
  like, in words), and
* the empirical food-science settings linked to that topic (what a
  rheometer would say, in RU).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from repro.core.linkage import TopicLinker
from repro.corpus.extraction import TextureTermExtractor
from repro.corpus.features import RecipeFeatures, build_features
from repro.corpus.recipe import Recipe
from repro.errors import ModelError
from repro.lexicon.dictionary import TextureDictionary, build_dictionary
from repro.rheology.studies import TABLE_I, EmpiricalSetting


@dataclass(frozen=True)
class TextureEstimate:
    """The estimate returned for one recipe."""

    recipe_id: str
    topic: int
    topic_distribution: np.ndarray
    predicted_terms: tuple[tuple[str, float], ...]   # (surface, probability)
    linked_settings: tuple[EmpiricalSetting, ...]    # nearest food-science rows

    @property
    def top_term(self) -> str:
        """The single most characteristic texture term."""
        return self.predicted_terms[0][0] if self.predicted_terms else ""

    def expected_rheology(self):
        """Mean measured texture over the linked empirical settings.

        Returns ``None`` when no Table I row links to the topic.
        """
        if not self.linked_settings:
            return None
        values = np.mean(
            [s.texture.as_array() for s in self.linked_settings], axis=0
        )
        from repro.rheology.attributes import TextureProfile

        return TextureProfile.from_array(values)


class TextureEstimator:
    """Fold-in texture estimation against a fitted pipeline.

    Parameters
    ----------
    result:
        A fitted :class:`~repro.pipeline.experiment.ExperimentResult`
        (or any object exposing ``model``, ``linker`` and ``vocabulary``).
    dictionary:
        Dictionary used to featurise incoming recipes.
    """

    def __init__(self, result, dictionary: TextureDictionary | None = None) -> None:
        model = result.model
        if getattr(model, "theta_", None) is None:
            raise ModelError("estimator needs a fitted model")
        self.model = model
        self.linker: TopicLinker = result.linker
        self.vocabulary: tuple[str, ...] = tuple(result.vocabulary)
        self._term_ids = {s: i for i, s in enumerate(self.vocabulary)}
        self.dictionary = dictionary or build_dictionary()
        self._extractor = TextureTermExtractor(self.dictionary)
        self._gel_params = self.linker.gel_params()
        # Under the generative model a fresh document's topic prior is the
        # symmetric Dir(α) mean — uniform.
        self._log_prior = np.zeros(model.n_topics)

    # -- inference ------------------------------------------------------------

    def topic_posterior(self, features: RecipeFeatures) -> np.ndarray:
        """p(topic | gel vector, texture terms) under fitted parameters."""
        logits = self._log_prior.copy()
        for k in range(self.model.n_topics):
            logits[k] += float(
                self._gel_params[k].log_density(features.gel_log)[0]
            )
        phi = np.asarray(self.model.phi_)
        for surface, count in features.term_counts.items():
            term_id = self._term_ids.get(surface)
            if term_id is not None:
                logits += count * np.log(np.maximum(phi[:, term_id], 1e-12))
        logits -= logsumexp(logits)
        return np.exp(logits)

    def estimate_features(self, features: RecipeFeatures) -> TextureEstimate:
        """Estimate from already-built features."""
        posterior = self.topic_posterior(features)
        topic = int(posterior.argmax())
        terms = tuple(
            (self.vocabulary[v], p) for v, p in self.model.top_words(topic, 8)
        )
        table = self.linker.assignment_table(TABLE_I)
        linked = tuple(
            s for s in TABLE_I if s.data_id in table.get(topic, ())
        )
        return TextureEstimate(
            recipe_id=features.recipe_id,
            topic=topic,
            topic_distribution=posterior,
            predicted_terms=terms,
            linked_settings=linked,
        )

    def estimate(self, recipe: Recipe) -> TextureEstimate:
        """Estimate the texture of a new posted recipe.

        Texture terms already present in the description are used as
        evidence; a recipe with *no* texture words is estimated from its
        ingredient concentrations alone — the cold-start case the paper
        targets.
        """
        features = build_features(recipe, self._extractor)
        return self.estimate_features(features)
