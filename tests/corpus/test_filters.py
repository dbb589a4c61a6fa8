"""Tests for repro.corpus.filters."""

import numpy as np

from repro.corpus.features import RecipeFeatures
from repro.corpus.filters import UNRELATED_THRESHOLD, DatasetFilter


def features(n_terms=2, gel=0.01, unrelated=0.0):
    counts = {"purupuru": n_terms} if n_terms else {}
    return RecipeFeatures(
        recipe_id="R1",
        term_counts=counts,
        gel_raw=np.array([gel, 0.0, 0.0]),
        emulsion_raw=np.zeros(6),
        gel_log=np.zeros(3),
        emulsion_log=np.zeros(6),
        total_mass_g=300.0,
        unrelated_fraction=unrelated,
    )


def test_threshold_matches_paper():
    assert UNRELATED_THRESHOLD == 0.10


class TestAccept:
    def test_good_recipe_accepted(self):
        assert DatasetFilter().accept(features())

    def test_no_terms_rejected(self):
        filt = DatasetFilter()
        assert not filt.accept(features(n_terms=0))
        assert filt.rejected["no_terms"] == 1

    def test_no_gel_rejected(self):
        filt = DatasetFilter()
        assert not filt.accept(features(gel=0.0))
        assert filt.rejected["no_gel"] == 1

    def test_unrelated_over_threshold_rejected(self):
        filt = DatasetFilter()
        assert not filt.accept(features(unrelated=0.11))
        assert filt.rejected["unrelated"] == 1

    def test_unrelated_at_threshold_accepted(self):
        assert DatasetFilter().accept(features(unrelated=0.10))


class TestApply:
    def test_rejection_order_short_circuits(self):
        # a recipe failing both rules is only counted under the first
        filt = DatasetFilter()
        filt.accept(features(n_terms=0, gel=0.0))
        assert filt.rejected == {"no_terms": 1, "no_gel": 0, "unrelated": 0}
