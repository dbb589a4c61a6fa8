"""Search recipes by desired texture — the paper's end-user goal.

Section I: the point of estimating texture is "enabling [users] to find
their favorite recipes in more suitable manner". Once the joint model is
fitted, every recipe carries a topic distribution θ_d and every topic a
term distribution φ_k, so the probability that recipe d *feels like*
query term w is simply ``Σ_k θ_dk · φ_kw`` — even when the recipe's own
description never uses the word.

:class:`TextureSearch` ranks a fitted dataset's recipes against a bag of
query terms this way, with an optional boost for recipes whose authors
literally wrote a query term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError, UnknownTermError


@dataclass(frozen=True)
class SearchHit:
    """One ranked search result."""

    recipe_id: str
    score: float
    topic: int
    mentions_query: bool


class TextureSearch:
    """Texture-term search over a fitted pipeline result."""

    def __init__(self, result, mention_boost: float = 1.5) -> None:
        model = result.model
        if getattr(model, "theta_", None) is None:
            raise ModelError("search needs a fitted model")
        self.theta = np.asarray(model.theta_)
        self.phi = np.asarray(model.phi_)
        self.vocabulary: tuple[str, ...] = tuple(result.vocabulary)
        self._term_ids = {s: i for i, s in enumerate(self.vocabulary)}
        self.recipe_ids: tuple[str, ...] = tuple(result.dataset.recipe_ids)
        self._term_counts = [f.term_counts for f in result.dataset.features]
        self._assignments = model.topic_assignments()
        if mention_boost < 1.0:
            raise ModelError("mention_boost must be >= 1")
        self.mention_boost = mention_boost

    # -- queries ------------------------------------------------------------

    def term_probability(self, surface: str) -> np.ndarray:
        """p(term | recipe) = Σ_k θ_dk φ_kw for every recipe."""
        term_id = self._term_ids.get(surface)
        if term_id is None:
            raise UnknownTermError(surface)
        return self.theta @ self.phi[:, term_id]

    def query(self, terms, top: int = 10) -> list[SearchHit]:
        """Rank recipes by joint probability of all query ``terms``.

        Unknown terms (never observed in the dataset) raise
        :class:`~repro.errors.UnknownTermError` — the caller can check
        membership against :attr:`vocabulary` first.
        """
        terms = list(terms)
        if not terms:
            raise ModelError("empty query")
        if top < 1:
            raise ModelError(f"top must be >= 1, got {top}")
        log_scores = np.zeros(len(self.recipe_ids))
        for surface in terms:
            log_scores += np.log(
                np.maximum(self.term_probability(surface), 1e-12)
            )
        mentions = np.array(
            [
                any(t in counts for t in terms)
                for counts in self._term_counts
            ]
        )
        log_scores += np.log(self.mention_boost) * mentions  # repro: noqa[NUM002] - mention_boost >= 1 validated in __init__
        order = np.argsort(log_scores)[::-1][:top]
        return [
            SearchHit(
                recipe_id=self.recipe_ids[i],
                score=float(np.exp(log_scores[i])),
                topic=int(self._assignments[i]),
                mentions_query=bool(mentions[i]),
            )
            for i in order
        ]

    def similar_recipes(self, recipe_id: str, top: int = 10) -> list[SearchHit]:
        """Recipes with the most similar topic distribution (cosine θ)."""
        try:
            index = self.recipe_ids.index(recipe_id)
        except ValueError:
            raise ModelError(f"unknown recipe id {recipe_id!r}") from None
        if top < 1:
            raise ModelError(f"top must be >= 1, got {top}")
        query = self.theta[index]
        norms = np.linalg.norm(self.theta, axis=1) * np.linalg.norm(query)
        scores = self.theta @ query / np.maximum(norms, 1e-12)
        scores[index] = -np.inf
        order = np.argsort(scores)[::-1][:top]
        return [
            SearchHit(
                recipe_id=self.recipe_ids[i],
                score=float(scores[i]),
                topic=int(self._assignments[i]),
                mentions_query=False,
            )
            for i in order
        ]
