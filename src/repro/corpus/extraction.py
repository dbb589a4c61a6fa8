"""Texture-term spotting in recipe descriptions.

Implements the extraction step of Section III-A: "all the texture terms
appeared in the descriptions of posted recipes are extracted by referring
to the dictionary", with support for an *exclusion set* — the terms the
word2vec gel-relatedness filter (Section III-A, the nuts→crispy example)
decides to drop for this corpus.
"""

from __future__ import annotations

from typing import Iterable

from repro.corpus.recipe import Recipe
from repro.corpus.tokenizer import Tokenizer
from repro.lexicon.dictionary import TextureDictionary
from repro.lexicon.term import TextureTerm


class TextureTermExtractor:
    """Spot dictionary texture terms in recipes.

    Parameters
    ----------
    dictionary:
        The texture dictionary to match against.
    excluded:
        Surfaces to ignore even when they match (the word2vec filter's
        output). Can be extended later via :meth:`exclude`.
    """

    def __init__(
        self,
        dictionary: TextureDictionary,
        excluded: Iterable[str] = (),
    ) -> None:
        self.dictionary = dictionary
        self.tokenizer = Tokenizer()
        self._excluded: set[str] = set(excluded)

    @property
    def excluded(self) -> frozenset[str]:
        """Currently excluded surfaces."""
        return frozenset(self._excluded)

    def exclude(self, surfaces: Iterable[str]) -> None:
        """Add surfaces to the exclusion set."""
        self._excluded.update(surfaces)

    def terms(self, recipe: Recipe) -> list[TextureTerm]:
        """Texture-term occurrences in the recipe description, in order."""
        tokens = self.tokenizer.tokenize(recipe.description)
        return [
            term
            for term in self.dictionary.spot(tokens)
            if term.surface not in self._excluded
        ]

    def term_counts(self, recipe: Recipe) -> dict[str, int]:
        """Term-frequency map over the recipe description."""
        counts: dict[str, int] = {}
        for term in self.terms(recipe):
            counts[term.surface] = counts.get(term.surface, 0) + 1
        return counts

    def term_sequence(self, recipe: Recipe) -> list[str]:
        """The paper's 'sequence of texture terms' feature (surfaces)."""
        return [term.surface for term in self.terms(recipe)]
