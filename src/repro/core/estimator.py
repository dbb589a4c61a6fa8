"""Texture estimation for new recipes — the paper's motivating use case.

"This study aims to provide home cooking users with reliable information
of texture, thereby enabling to find their favorite recipes in more
suitable manner." (Section I.)

:class:`TextureEstimator` folds a *new* posted recipe into a fitted
joint topic model: the recipe is featurised like the training corpus,
:func:`gibbs_fold_in` samples its topics against the frozen fitted
parameters, and the estimate combines the dominant topic's texture-term
pattern (what the dish will feel like, in words) with the food-science
settings linked to that topic (what a rheometer would say, in RU).

This is the only fold-in: ``repro estimate``, the examples and
``repro serve`` all run it, seeded by :func:`request_seed` from the
recipe's :func:`canonical_key`, so a recipe gets the same answer on
every surface.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from repro.core import normal_wishart as nw
from repro.core.linkage import TopicLinker
from repro.corpus.extraction import TextureTermExtractor
from repro.corpus.features import RecipeFeatures, build_features
from repro.corpus.recipe import Recipe
from repro.errors import ModelError, UnknownTermError
from repro.lexicon.dictionary import TextureDictionary, build_dictionary
from repro.rheology.attributes import TextureProfile
from repro.rheology.studies import TABLE_I, EmpiricalSetting
from repro.rng import ensure_rng

#: Base seed mixed into every per-recipe stream.
BASE_SEED = 20220501


def canonical_key(
    ingredients: Iterable[tuple[str, str]],
    description: str,
    terms: Sequence[str],
) -> str:
    """A recipe's content as the string that seeds its fold-in stream.

    Recipes with the same key are *the same question* and get
    bit-identical answers; presentation settings are not part of it.
    """
    content = {
        "ingredients": [list(pair) for pair in ingredients],
        "description": description,
        "terms": list(terms),
    }
    return json.dumps(
        content, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def request_seed(base_seed: int, canonical: str) -> int:
    """A recipe's RNG seed: SHA-256 of ``(base_seed, canonical key)``
    truncated to 64 bits, so identical recipes share a stream and
    distinct recipes get independent ones."""
    digest = hashlib.sha256(f"{base_seed}:{canonical}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class FoldInConfig:
    """Gibbs fold-in settings."""

    #: Total fold-in sweeps per recipe; the first third is burn-in.
    n_sweeps: int = 48
    #: Posterior mass on the winning topic needed for ``status="ok"``.
    ok_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.n_sweeps < 1:
            raise ModelError("n_sweeps must be positive")
        if not 0.0 < self.ok_threshold <= 1.0:
            raise ModelError("ok_threshold must lie in (0, 1]")

    @property
    def burn_in(self) -> int:
        """Sweeps :func:`gibbs_fold_in` discards before averaging."""
        return self.n_sweeps // 3


def gibbs_fold_in(
    phi: np.ndarray,
    alpha: float,
    log_gel: np.ndarray,
    token_ids: np.ndarray,
    n_sweeps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Posterior concentration topic of one unseen document.

    Collapsed Gibbs with θ integrated out: each token (``token_ids``
    index the columns of the K × V ``phi``) keeps a topic ``z_i`` and
    the document keeps the concentration topic ``y`` that ties in the
    gel evidence ``log_gel`` (one log-density per topic). ``phi`` and
    ``log_gel`` stay frozen. Returns ``p(y | z, g)`` averaged over the
    sweeps after the first third, an estimate of ``p(y=k | w, g) ∝
    p(g | k) · (α + E[n_k | w])``; a pure function of the arguments and
    the ``rng`` state.

    The sweeps run on Python-float K-vectors: a fold-in has a handful of
    tokens, where one numpy call costs more than the K-loop it replaces.
    Every draw is an inverse-CDF lookup on sequential cumulative sums,
    the same arithmetic as :func:`~repro.core.kernels.sample_from_cumulative`
    on ``np.cumsum``, so the answer and the ``rng`` state it leaves are
    those of the per-draw numpy loop, bit for bit.
    """
    n_topics = phi.shape[0]
    last = n_topics - 1
    n_tokens = token_ids.size
    burn_in = n_sweeps // 3
    gel_weight = np.exp(log_gel - log_gel.max())
    gel = gel_weight.tolist()
    z = rng.integers(0, n_topics, size=n_tokens).tolist()
    # The first sweep resamples y before use; its initial draw stays so
    # seeded answers keep their stream.
    rng.integers(0, n_topics)
    # One uniform per draw, consumed in sweep order: y, then each token.
    uniforms = iter(rng.random(n_sweeps * (1 + n_tokens)).tolist())
    counts = [0.0] * n_topics
    for k in z:
        counts[k] += 1.0
    columns = phi[:, token_ids].T.tolist()
    kept: list[list[float]] = []
    if not n_tokens:
        # Only token draws read y: with no tokens every kept sweep holds
        # the all-zero counts, so the sweeps are skipped. Their uniforms
        # were drawn above, so the rng is left where the sweeps leave it.
        kept = [counts] * (n_sweeps - burn_in)
    for sweep in range(n_sweeps if n_tokens else 0):
        # y | z, g ∝ (α + n_k) · p(g | k), with θ collapsed.
        base = [alpha + c for c in counts]
        cumulative = list(accumulate(map(mul, base, gel)))
        y = bisect_left(cumulative, next(uniforms) * cumulative[-1])
        y = y if y < last else last
        # z_i | z_-i, y: y contributes one count to the collapsed θ.
        base[y] += 1.0
        for i, column in enumerate(columns):
            k = z[i]
            counts[k] -= 1.0
            base[k] = alpha + counts[k]
            if k == y:
                base[k] += 1.0
            cumulative = list(accumulate(map(mul, base, column)))
            k = bisect_left(cumulative, next(uniforms) * cumulative[-1])
            k = k if k < last else last
            z[i] = k
            counts[k] += 1.0
            base[k] = alpha + counts[k]
            if k == y:
                base[k] += 1.0
        if sweep >= burn_in:
            kept.append(counts[:])
    # p(y | z, g) of every kept sweep in one pass; each row sums in the
    # order of a 1-D ``.sum()`` and the rows add up in sweep order.
    conditional = (alpha + np.array(kept)) * gel_weight
    ratios = conditional / conditional.sum(axis=1, keepdims=True)
    accumulated = np.zeros(n_topics)
    for row in ratios:
        accumulated += row
    return accumulated / (n_sweeps - burn_in)


def mean_rheology(settings: Sequence[EmpiricalSetting]) -> TextureProfile | None:
    """Mean measured texture over ``settings``; ``None`` when empty."""
    if not settings:
        return None
    return TextureProfile.from_array(
        np.mean([s.texture.as_array() for s in settings], axis=0)
    )


@dataclass(frozen=True)
class TextureEstimate:
    """The estimate returned for one recipe."""

    recipe_id: str
    topic: int
    topic_distribution: np.ndarray
    predicted_terms: tuple[tuple[str, float], ...]   # (surface, probability)
    linked_settings: tuple[EmpiricalSetting, ...]    # KL-linked Table I rows
    confidence: float   # posterior mass on ``topic``
    status: str         # "ok" when confidence clears the threshold, else "review"
    seed: int           # seed of the fold-in's RNG stream

    def expected_rheology(self) -> TextureProfile | None:
        """Mean measured texture over the linked settings (or ``None``)."""
        return mean_rheology(self.linked_settings)


class TextureEstimator:
    """Fold-in texture estimation against a fitted pipeline.

    Parameters
    ----------
    result:
        A fitted :class:`~repro.pipeline.experiment.ExperimentResult` or
        anything exposing ``model``, ``linker`` and ``vocabulary``, such
        as the served :class:`~repro.serve.engine.ModelBundle`.
    config:
        Fold-in settings (:class:`FoldInConfig` defaults).
    dictionary:
        Dictionary used to featurise incoming recipes.
    """

    def __init__(
        self,
        result,
        config: FoldInConfig | None = None,
        dictionary: TextureDictionary | None = None,
    ) -> None:
        model = result.model
        if getattr(model, "phi_", None) is None:
            raise ModelError("estimator needs a fitted model")
        self.model = model
        self.config = config or FoldInConfig()
        self.vocabulary: tuple[str, ...] = tuple(result.vocabulary)
        self.term_ids = {s: i for i, s in enumerate(self.vocabulary)}
        self.dictionary = dictionary or build_dictionary()
        self._extractor = TextureTermExtractor(self.dictionary)
        self.phi = np.asarray(model.phi_, dtype=float)
        self._alpha = float(getattr(model.config, "alpha", 1.0))
        linker: TopicLinker = result.linker
        #: The floored gel Gaussians, stacked once for every fold-in.
        self._gel = nw.GaussianStack.of(linker.gel_params())
        by_id = {s.data_id: s for s in TABLE_I}
        #: Topic -> its KL-linked Table I settings.
        self.linked: dict[int, tuple[EmpiricalSetting, ...]] = {
            topic: tuple(by_id[data_id] for data_id in data_ids)
            for topic, data_ids in linker.assignment_table(TABLE_I).items()
        }

    def features(self, recipe: Recipe, terms: Sequence[str] = ()) -> RecipeFeatures:
        """Featurise a recipe exactly like a training recipe.

        Explicit ``terms`` are validated against the model vocabulary
        (:class:`~repro.errors.UnknownTermError` for misses) and merged
        into the description-mined counts as extra evidence.
        """
        features = build_features(recipe, self._extractor)
        if not terms:
            return features
        merged = dict(features.term_counts)
        for surface in terms:
            if surface not in self.term_ids:
                raise UnknownTermError(surface)
            merged[surface] = merged.get(surface, 0) + 1
        return dataclasses.replace(features, term_counts=merged)

    def token_ids(self, features: RecipeFeatures) -> np.ndarray:
        """The in-vocabulary texture-term tokens of ``features``."""
        sequence = features.term_sequence()
        ids = [self.term_ids[s] for s in sequence if s in self.term_ids]
        return np.array(ids, dtype=np.int64)

    def fold_in(self, features: RecipeFeatures, rng: np.random.Generator) -> np.ndarray:
        """:func:`gibbs_fold_in` of one featurised recipe."""
        log_gel = self._gel.log_density(features.gel_log)[0]
        return gibbs_fold_in(
            self.phi, self._alpha, log_gel, self.token_ids(features),
            self.config.n_sweeps, rng,
        )

    def readout(
        self, recipe_id: str, posterior: np.ndarray, seed: int, top_terms: int = 8
    ) -> TextureEstimate:
        """The estimate a fold-in posterior stands for."""
        topic = int(posterior.argmax())
        confidence = float(posterior[topic])
        return TextureEstimate(
            recipe_id=recipe_id,
            topic=topic,
            topic_distribution=posterior,
            predicted_terms=tuple(
                (self.vocabulary[v], p)
                for v, p in self.model.top_words(topic, top_terms)
            ),
            linked_settings=self.linked.get(topic, ()),
            confidence=confidence,
            status="ok" if confidence >= self.config.ok_threshold else "review",
            seed=seed,
        )

    def estimate(self, recipe: Recipe, terms: Sequence[str] = ()) -> TextureEstimate:
        """Estimate the texture of a new posted recipe.

        Texture terms in the description, plus any explicit ``terms``,
        are used as evidence; a recipe with *no* texture words is
        estimated from its ingredient concentrations alone — the
        cold-start case the paper targets.
        """
        features = self.features(recipe, terms)
        pairs = [(i.name, i.quantity_text) for i in recipe.ingredients]
        seed = request_seed(BASE_SEED, canonical_key(pairs, recipe.description, terms))
        posterior = self.fold_in(features, ensure_rng(seed))
        return self.readout(recipe.recipe_id, posterior, seed)
