"""Tests for repro.eval.binning — the Fig 3 machinery."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.eval.binning import (
    kl_ordered_bins,
    low_kl_concentration,
    recipe_axis_sign,
)
from repro.lexicon.categories import SensoryAxis

H = SensoryAxis.HARDNESS


class TestRecipeAxisSign:
    def test_hard_recipe(self, dictionary):
        assert recipe_axis_sign({"katai": 2}, H, dictionary) == 1

    def test_soft_recipe(self, dictionary):
        assert recipe_axis_sign({"fuwafuwa": 1}, H, dictionary) == -1

    def test_mixed_weighs_by_frequency(self, dictionary):
        counts = {"katai": 3, "fuwafuwa": 1}
        assert recipe_axis_sign(counts, H, dictionary) == 1

    def test_unknown_terms_ignored(self, dictionary):
        assert recipe_axis_sign({"zzz": 5}, H, dictionary) == 0

    def test_no_terms_neutral(self, dictionary):
        assert recipe_axis_sign({}, H, dictionary) == 0


class TestKlOrderedBins:
    def test_hard_recipes_at_low_kl_show_up_in_head_bins(self, dictionary):
        # construct: low-KL recipes are hard, high-KL ones are soft
        divergences = np.linspace(0.0, 1.0, 40)
        term_counts = [
            {"katai": 1} if kl < 0.5 else {"fuwafuwa": 1} for kl in divergences
        ]
        series = kl_ordered_bins(divergences, term_counts, H, dictionary, n_bins=4)
        assert series.positive[:2].sum() == 20
        assert series.positive[2:].sum() == 0
        assert series.negative[2:].sum() == 20

    def test_counts_partition_recipes(self, dictionary):
        divergences = np.linspace(0.0, 1.0, 30)
        term_counts = [{"katai": 1}] * 30
        series = kl_ordered_bins(divergences, term_counts, H, dictionary, n_bins=5)
        assert series.positive.sum() == 30
        assert series.negative.sum() == 0

    def test_quantile_edges_monotone(self, dictionary, rng):
        divergences = rng.exponential(size=50)
        term_counts = [{"katai": 1}] * 50
        series = kl_ordered_bins(divergences, term_counts, H, dictionary, n_bins=6)
        assert np.all(np.diff(series.edges) >= 0)

    def test_labels_match_axis(self, dictionary):
        series = kl_ordered_bins(
            np.array([0.1]), [{"katai": 1}], H, dictionary, n_bins=1
        )
        assert series.positive_label == "hard"
        assert series.negative_label == "soft"

    def test_misaligned_inputs_rejected(self, dictionary):
        with pytest.raises(ReproError):
            kl_ordered_bins(np.array([0.1, 0.2]), [{}], H, dictionary)

    def test_empty_rejected(self, dictionary):
        with pytest.raises(ReproError):
            kl_ordered_bins(np.array([]), [], H, dictionary)


class TestLowKlConcentration:
    def test_concentrated_series(self, dictionary):
        divergences = np.linspace(0.0, 1.0, 40)
        term_counts = [
            {"katai": 1} if kl < 0.25 else {"fuwafuwa": 1} for kl in divergences
        ]
        series = kl_ordered_bins(divergences, term_counts, H, dictionary, n_bins=8)
        assert low_kl_concentration(series, head=2) == pytest.approx(1.0)

    def test_uniform_series(self, dictionary):
        divergences = np.linspace(0.0, 1.0, 80)
        term_counts = [{"katai": 1}] * 80
        series = kl_ordered_bins(divergences, term_counts, H, dictionary, n_bins=8)
        assert low_kl_concentration(series, head=2) == pytest.approx(0.25, abs=0.05)

    def test_empty_positive_is_zero(self, dictionary):
        series = kl_ordered_bins(
            np.array([0.1, 0.2]), [{}, {}], H, dictionary, n_bins=2
        )
        assert low_kl_concentration(series) == 0.0
