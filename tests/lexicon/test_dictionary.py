"""Tests for repro.lexicon.dictionary."""

import pytest

from repro.errors import DictionaryError, UnknownTermError
from repro.lexicon.categories import SensoryAxis
from repro.lexicon.dictionary import (
    PAPER_DICTIONARY_SIZE,
    TextureDictionary,
    build_dictionary,
)
from repro.lexicon.paper_terms import PAPER_SURFACES
from repro.lexicon.term import TextureTerm

H = SensoryAxis.HARDNESS


class TestBuildDictionary:
    def test_paper_size(self, dictionary):
        assert len(dictionary) == PAPER_DICTIONARY_SIZE == 288

    def test_contains_all_41_paper_terms(self, dictionary):
        assert len(PAPER_SURFACES) == 41
        for surface in PAPER_SURFACES:
            assert surface in dictionary

    def test_every_term_has_a_category(self, dictionary):
        for term in dictionary:
            assert term.categories

    def test_has_both_gel_and_non_gel_terms(self, dictionary):
        assert len(dictionary.gel_related()) > 0
        assert len(dictionary.non_gel()) > 0
        assert len(dictionary.gel_related()) + len(dictionary.non_gel()) == 288

    def test_crispy_family_present(self, dictionary):
        assert "karikari" in dictionary
        assert not dictionary["karikari"].gel_related

    def test_oversized_request_raises(self):
        with pytest.raises(DictionaryError):
            build_dictionary(size=10_000)

    def test_smaller_dictionary_keeps_paper_terms_first(self):
        small = build_dictionary(size=41)
        assert set(small.surfaces) == set(PAPER_SURFACES)

    def test_deterministic(self):
        assert build_dictionary().surfaces == build_dictionary().surfaces

    def test_inventory_supports_naro_full_scale(self):
        """The full NARO list has 445 terms; the inventory must stretch
        well beyond the paper's 288-term selection."""
        large = build_dictionary(size=420)
        assert len(large) == 420
        # the paper terms still come first
        assert set(build_dictionary(41).surfaces) <= set(large.surfaces)


class TestLookup:
    def test_getitem_known(self, dictionary):
        assert dictionary["katai"].gloss.startswith("Hard")

    def test_getitem_unknown_raises(self, dictionary):
        with pytest.raises(UnknownTermError):
            dictionary["nonexistent"]

    def test_get_returns_none_for_unknown(self, dictionary):
        assert dictionary.get("nonexistent") is None

    def test_contains(self, dictionary):
        assert "purupuru" in dictionary
        assert "xyzzy" not in dictionary

    def test_sign_on(self, dictionary):
        assert dictionary.sign_on("katai", H) == 1
        assert dictionary.sign_on("fuwafuwa", H) == -1


class TestSpotting:
    def test_spot_in_order(self, dictionary):
        tokens = ["kantan", "purupuru", "na", "katai", "purupuru"]
        spotted = [t.surface for t in dictionary.spot(tokens)]
        assert spotted == ["purupuru", "katai", "purupuru"]

    def test_term_counts(self, dictionary):
        tokens = ["purupuru", "katai", "purupuru"]
        assert dictionary.term_counts(tokens) == {"purupuru": 2, "katai": 1}

    def test_spot_empty(self, dictionary):
        assert dictionary.spot([]) == []


class TestIntrospection:
    def test_subset_preserves_order(self, dictionary):
        subset = dictionary.subset(["katai", "purupuru"])
        assert subset.surfaces == ("katai", "purupuru")

    def test_duplicate_surface_rejected(self):
        term = TextureTerm(surface="x", gloss="g", polarity={H: 0.5})
        with pytest.raises(DictionaryError):
            TextureDictionary([term, term])

    def test_unannotated_term_rejected(self):
        bare = TextureTerm(surface="x", gloss="g", polarity={})
        with pytest.raises(DictionaryError):
            TextureDictionary([bare])
