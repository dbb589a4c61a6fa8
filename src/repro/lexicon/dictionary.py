"""The 288-term texture dictionary.

Section III-A of the paper: "We construct the dictionary by extracting
all the texture terms belonging to the categories of hardness,
cohesiveness, and adhesiveness in Comprehensive Japanese Texture Terms
[…] As the result, the dictionary includes 288 texture terms."

:func:`build_dictionary` reproduces that construction: the 41 verbatim
dataset terms of the paper come first, then morphological variants of
the base inventory fill the dictionary up to exactly 288 entries in a
deterministic order (gel families before the crisp/dry families).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import DictionaryError, UnknownTermError
from repro.lexicon.base_terms import ALL_BASES
from repro.lexicon.categories import SensoryAxis
from repro.lexicon.paper_terms import PAPER_TERMS
from repro.lexicon.term import TextureTerm
from repro.lexicon.variants import expand_all

#: Dictionary size stated by the paper.
PAPER_DICTIONARY_SIZE = 288


class TextureDictionary:
    """An immutable surface-form → :class:`TextureTerm` dictionary.

    Provides the two services the paper needs from the NARO dictionary:
    term *spotting* in tokenised recipe descriptions, and category
    *annotation* lookup for validating topic→rheology linkages.
    """

    def __init__(self, terms: Iterable[TextureTerm]) -> None:
        self._terms: dict[str, TextureTerm] = {}
        for term in terms:
            if term.surface in self._terms:
                raise DictionaryError(f"duplicate surface: {term.surface!r}")
            if not term.categories:
                raise DictionaryError(
                    f"term {term.surface!r} carries no category annotation"
                )
            self._terms[term.surface] = term

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, surface: object) -> bool:
        return surface in self._terms

    def __iter__(self) -> Iterator[TextureTerm]:
        return iter(self._terms.values())

    def __getitem__(self, surface: str) -> TextureTerm:
        try:
            return self._terms[surface]
        except KeyError:
            raise UnknownTermError(surface) from None

    # -- lookups ------------------------------------------------------------

    @property
    def surfaces(self) -> tuple[str, ...]:
        """All surfaces in canonical (insertion) order."""
        return tuple(self._terms)

    def get(self, surface: str) -> TextureTerm | None:
        """Like ``dict.get``: the term, or ``None`` when absent."""
        return self._terms.get(surface)

    def gel_related(self) -> tuple[TextureTerm, ...]:
        """Terms describing textures gels can realise."""
        return tuple(t for t in self if t.gel_related)

    def non_gel(self) -> tuple[TextureTerm, ...]:
        """Terms anchored to non-gel foods (crisp/dry families)."""
        return tuple(t for t in self if not t.gel_related)

    def sign_on(self, surface: str, axis: SensoryAxis) -> int:
        """Classify ``surface`` on ``axis``: ``+1`` / ``-1`` / ``0``.

        Raises :class:`~repro.errors.UnknownTermError` for unknown terms.
        """
        return self[surface].sign_on(axis)

    # -- spotting -----------------------------------------------------------

    def spot(self, tokens: Sequence[str]) -> list[TextureTerm]:
        """Texture terms among ``tokens``, in order of occurrence.

        Every occurrence is reported, so repeated mentions contribute to
        term frequency exactly as Section IV-A prescribes.
        """
        return [self._terms[tok] for tok in tokens if tok in self._terms]

    def term_counts(self, tokens: Sequence[str]) -> dict[str, int]:
        """Term-frequency map of the texture terms among ``tokens``."""
        counts: dict[str, int] = {}
        for term in self.spot(tokens):
            counts[term.surface] = counts.get(term.surface, 0) + 1
        return counts

    # -- introspection ------------------------------------------------------

    def subset(self, surfaces: Iterable[str]) -> "TextureDictionary":
        """A dictionary restricted to ``surfaces`` (order preserved)."""
        return TextureDictionary(self[s] for s in surfaces)


def build_dictionary(size: int = PAPER_DICTIONARY_SIZE) -> TextureDictionary:
    """Build the paper's texture dictionary.

    The 41 dataset terms come first (verbatim from the paper), then
    morphological variants of the base inventory in canonical order until
    ``size`` entries are reached.

    Raises :class:`~repro.errors.DictionaryError` if the inventory cannot
    supply ``size`` distinct surfaces.
    """
    selected: list[TextureTerm] = list(PAPER_TERMS)
    seen = {t.surface for t in selected}
    for term in expand_all(ALL_BASES):
        if len(selected) >= size:
            break
        if term.surface not in seen:
            seen.add(term.surface)
            selected.append(term)
    if len(selected) < size:
        raise DictionaryError(
            f"inventory supplies only {len(selected)} surfaces, need {size}"
        )
    return TextureDictionary(selected)
