"""Consumer cooked-report ("tsukurepo") synthesis.

Cookpad recipes accumulate short reports from users who cooked them.
The paper's conclusion points at exactly this data: "we will detect
rules bridging between recipe information … and sensory textures of
*consumers*." This module generates such reports for a synthetic corpus:
a consumer cooks the dish, perceives its true rheological profile with
extra person-to-person noise, and writes a line or two that may mention
texture terms.

The resulting reviews are *held-out consumer evidence*: they are sampled
from the same ground-truth texture as the author's description but with
independent noise, so a model fitted on descriptions can be evaluated on
whether it predicts what consumers say
(`benchmarks/bench_consumer_reports.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.lexicon.dictionary import TextureDictionary, build_dictionary
from repro.rheology.attributes import TextureProfile
from repro.rng import RngLike, ensure_rng
from repro.synth.generator import SyntheticCorpus
from repro.synth.term_affinity import sample_terms

#: Review openers/closers (no texture content).
_OPENERS = (
    "tsukurimashita",
    "kodomo to tsukurimashita",
    "ripito desu",
    "hajimete tsukurimashita",
)
_CLOSERS = (
    "oishikatta desu",
    "mata tsukurimasu",
    "kazoku ni daikoubyou deshita",
    "gochisousama deshita",
)
_TEXTURE_FRAMES = (
    "{term} de oishikatta desu",
    "{term} na shokkan ni narimashita",
    "hontou ni {term} deshita",
)


@dataclass(frozen=True)
class Review:
    """One consumer cooked-report."""

    recipe_id: str
    text: str
    mentioned_terms: tuple[str, ...]


class ReviewGenerator:
    """Generates consumer reports for a synthetic corpus."""

    def __init__(
        self,
        dictionary: TextureDictionary | None = None,
        rng: RngLike = None,
        #: probability a review mentions texture at all
        texture_rate: float = 0.6,
        #: perception noise: multiplicative lognormal sigma on the
        #: profile the consumer experiences (wider than the author's)
        perception_sigma: float = 0.25,
        #: affinity sharpness (consumers are less precise than authors)
        sharpness: float = 3.0,
    ) -> None:
        self.dictionary = dictionary or build_dictionary()
        self.rng = ensure_rng(rng)
        self.texture_rate = texture_rate
        self.perception_sigma = perception_sigma
        self.sharpness = sharpness
        self._gel_terms = self.dictionary.gel_related()

    def _perceived(self, profile: TextureProfile) -> TextureProfile:
        noise = np.exp(self.rng.normal(0.0, self.perception_sigma, size=3))
        values = profile.as_array() * noise
        values[1] = min(values[1], 0.95)
        return TextureProfile.from_array(values)

    def review_for(self, recipe_id: str, profile: TextureProfile) -> Review:
        """One review for a dish with the given true texture."""
        rng = self.rng
        sentences = [_OPENERS[int(rng.integers(len(_OPENERS)))]]
        mentioned: list[str] = []
        if rng.random() < self.texture_rate:
            perceived = self._perceived(profile)
            count = 1 + int(rng.random() < 0.25)
            terms = sample_terms(
                self._gel_terms, perceived, count, rng, sharpness=self.sharpness
            )
            for term in terms:
                frame = _TEXTURE_FRAMES[int(rng.integers(len(_TEXTURE_FRAMES)))]
                sentences.append(frame.format(term=term.surface))
                mentioned.append(term.surface)
        sentences.append(_CLOSERS[int(rng.integers(len(_CLOSERS)))])
        return Review(
            recipe_id=recipe_id,
            text=" . ".join(sentences) + " .",
            mentioned_terms=tuple(mentioned),
        )

    def generate(
        self,
        corpus: SyntheticCorpus,
        recipe_ids: Iterable[str] | None = None,
        reviews_per_recipe: float = 1.2,
    ) -> list[Review]:
        """Reviews for ``recipe_ids`` (default: the whole corpus).

        Each recipe receives ``Poisson(reviews_per_recipe)`` reports.
        """
        ids = list(recipe_ids) if recipe_ids is not None else [
            r.recipe_id for r in corpus
        ]
        reviews: list[Review] = []
        for recipe_id in ids:
            truth = corpus.truth_of(recipe_id)
            for _ in range(int(self.rng.poisson(reviews_per_recipe))):
                reviews.append(self.review_for(recipe_id, truth.profile))
        return reviews
