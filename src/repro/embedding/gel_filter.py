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
from typing import Iterable, Sequence

from repro.embedding.skipgram import SkipGramConfig, SkipGramModel
from repro.lexicon.dictionary import TextureDictionary
from repro.rng import RngLike
from repro.synth.ingredients import TOPPING_INGREDIENTS

#: Ingredient tokens whose presence in a term's neighbourhood marks the
#: term as describing a topping rather than the gel.
DEFAULT_ANCHORS: frozenset[str] = frozenset(TOPPING_INGREDIENTS)


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
    """word2vec-neighbourhood exclusion of gel-unrelated texture terms."""

    def __init__(
        self,
        anchors: Iterable[str] = DEFAULT_ANCHORS,
        top_k: int = 15,
        anchor_top_k: int = 25,
        mutual: bool = True,
        config: SkipGramConfig | None = None,
    ) -> None:
        self.anchors = frozenset(anchors)
        self.top_k = top_k
        self.anchor_top_k = anchor_top_k
        #: With ``mutual=True`` (default) a term is excluded only when the
        #: association holds in both directions: an anchor appears among
        #: the term's ``top_k`` neighbours *and* the term appears among
        #: some anchor's ``anchor_top_k`` neighbours. Rare texture terms
        #: have noisy vectors, so the one-directional rule the paper
        #: sketches over-fires on them; anchors are frequent ingredients
        #: whose neighbourhoods are reliable, and requiring reciprocity
        #: restores precision without losing the crispy family.
        self.mutual = mutual
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
            raise RuntimeError("filter not fitted; call fit() first")
        anchor_neighbourhoods: set[str] = set()
        if self.mutual:
            for anchor in self.anchors:
                if anchor in self.model.vocab:
                    anchor_neighbourhoods.update(
                        token
                        for token, _ in self.model.most_similar(
                            anchor, self.anchor_top_k
                        )
                    )
        surfaces = set(dictionary.surfaces)
        report = FilterReport()
        for term in dictionary:
            if term.surface not in self.model.vocab:
                continue
            report.examined += 1
            # The paper's criterion is "similar words include *ingredient
            # terms*" — other texture terms are not evidence either way,
            # and on a large corpus a term's nearest neighbours are its
            # own family (karikari ↔ sakusaku), crowding ingredients out
            # of any fixed-k window. Rank among non-dictionary tokens.
            candidates = [
                token
                for token, _ in self.model.most_similar(
                    term.surface, self.top_k * 5
                )
                if token not in surfaces
            ][: self.top_k]
            hits = [t for t in candidates if t in self.anchors]
            if self.mutual and term.surface not in anchor_neighbourhoods:
                hits = []
            if hits:
                report.excluded.add(term.surface)
                report.evidence[term.surface] = hits
        return report

    def excluded_surfaces(self, dictionary: TextureDictionary) -> set[str]:
        """Just the exclusion set (the extractor's input)."""
        return self.report(dictionary).excluded
