"""The gel-relatedness filter of Section III-A.

"All the descriptions of retrieved posted recipes are trained by
word2vec. Then, if similar words to the extracted texture terms include
ingredient terms unrelated to gel, the texture terms are excluded."

:class:`GelRelatednessFilter` trains a skip-gram model over
the recipe descriptions and flags every dictionary texture term whose
top-k neighbourhood contains a gel-unrelated anchor ingredient (nuts,
granola, biscuits…). The flagged surfaces feed the extractor's exclusion
set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.embedding.skipgram import SkipGramConfig, SkipGramModel
from repro.errors import NotFittedError
from repro.lexicon.dictionary import TextureDictionary
from repro.rng import RngLike
from repro.synth.ingredients import TOPPING_INGREDIENTS

#: Ingredient tokens whose presence in a term's neighbourhood marks the
#: term as describing a topping rather than the gel.
ANCHORS: frozenset[str] = frozenset(TOPPING_INGREDIENTS)

#: A term is excluded only when the association holds in both
#: directions: an anchor appears among the term's ``TOP_K`` neighbours
#: *and* the term appears among some anchor's ``ANCHOR_TOP_K``
#: neighbours. Rare texture terms have noisy vectors, so the
#: one-directional rule the paper sketches over-fires on them; anchors
#: are frequent ingredients whose neighbourhoods are reliable, and
#: requiring reciprocity restores precision without losing the crispy
#: family.
TOP_K = 15
ANCHOR_TOP_K = 25


@dataclass
class FilterReport:
    """What the filter decided, term by term."""

    excluded: set[str] = field(default_factory=set)
    evidence: dict[str, list[str]] = field(default_factory=dict)
    examined: int = 0

    @property
    def n_excluded(self) -> int:
        return len(self.excluded)


class GelRelatednessFilter:
    """word2vec-neighbourhood exclusion of gel-unrelated texture terms.

    The rule is fixed by :data:`ANCHORS`, :data:`TOP_K` and
    :data:`ANCHOR_TOP_K`; ``config`` sets only how the skip-gram model
    trains (the pipeline passes the ``DEFAULT_W2V_CONFIG`` its gel-filter
    stage fingerprints).
    """

    def __init__(self, config: SkipGramConfig | None = None) -> None:
        self.config = config or SkipGramConfig()
        self.model: SkipGramModel | None = None

    def fit(
        self, sentences: Sequence[Sequence[str]], rng: RngLike = None
    ) -> "GelRelatednessFilter":
        """Train the underlying skip-gram model on the descriptions."""
        self.model = SkipGramModel(self.config).fit(sentences, rng=rng)
        return self

    def report(self, dictionary: TextureDictionary) -> FilterReport:
        """Decide, for every in-vocabulary dictionary term, whether its
        embedding neighbourhood anchors it to a gel-unrelated ingredient."""
        if self.model is None or self.model.vocab is None:
            raise NotFittedError("gel filter")
        anchor_neighbourhoods: set[str] = set()
        for anchor in ANCHORS:
            if anchor in self.model.vocab:
                anchor_neighbourhoods.update(
                    token
                    for token, _ in self.model.most_similar(anchor, ANCHOR_TOP_K)
                )
        surfaces = set(dictionary.surfaces)
        report = FilterReport()
        for term in dictionary:
            if term.surface not in self.model.vocab:
                continue
            report.examined += 1
            if term.surface not in anchor_neighbourhoods:
                continue  # not reciprocal (see TOP_K)
            # The paper's criterion is "similar words include *ingredient
            # terms*" — other texture terms are not evidence either way,
            # and on a large corpus a term's nearest neighbours are its
            # own family (karikari ↔ sakusaku), crowding ingredients out
            # of any fixed-k window. Rank among non-dictionary tokens.
            candidates = [
                token
                for token, _ in self.model.most_similar(term.surface, TOP_K * 5)
                if token not in surfaces
            ][:TOP_K]
            hits = [t for t in candidates if t in ANCHORS]
            if hits:
                report.excluded.add(term.surface)
                report.evidence[term.surface] = hits
        return report

    def excluded_surfaces(self, dictionary: TextureDictionary) -> set[str]:
        """Just the exclusion set (the extractor's input)."""
        return self.report(dictionary).excluded
