"""Tests for repro.corpus.features."""

import math

import pytest

from repro.corpus.extraction import TextureTermExtractor
from repro.corpus.features import build_features, mass_table
from repro.corpus.recipe import Ingredient, Recipe
from repro.errors import UnitParseError


def make_recipe(description="purupuru zerii", ingredients=None):
    ingredients = ingredients or (
        Ingredient("gelatin", "6 g"),
        Ingredient("sugar", "30 g"),
        Ingredient("water", "264 ml"),
    )
    return Recipe(
        recipe_id="R1",
        title="zerii",
        description=description,
        ingredients=tuple(ingredients),
    )


@pytest.fixture()
def extractor(dictionary):
    return TextureTermExtractor(dictionary)


class TestMassTable:
    def test_grams(self):
        masses = mass_table(make_recipe())
        assert masses["gelatin"] == pytest.approx(6.0)
        assert masses["water"] == pytest.approx(264.0)

    def test_to_taste_is_one_pinch(self):
        """A "to taste" amount weighs one pinch (0.6 mL); an ingredient
        missing from the physics table converts at water's density."""
        recipe = make_recipe(
            ingredients=(
                Ingredient("water", "200 ml"),
                Ingredient("salt", "tekiryou"),
                Ingredient("dragonfruit", "to taste"),
            )
        )
        masses = mass_table(recipe)
        assert masses["salt"] == pytest.approx(0.6 * 1.2)
        assert masses["dragonfruit"] == pytest.approx(0.6)

    def test_unparseable_raises(self):
        recipe = make_recipe(
            ingredients=(Ingredient("water", "some amount"),)
        )
        with pytest.raises(UnitParseError):
            mass_table(recipe)


class TestBuildFeatures:
    def test_gel_concentration(self, extractor):
        features = build_features(make_recipe(), extractor)
        assert features.gel_raw[0] == pytest.approx(6.0 / 300.0)
        assert features.has_gel

    def test_emulsion_concentration(self, extractor):
        features = build_features(make_recipe(), extractor)
        # sugar is the first canonical emulsion
        assert features.emulsion_raw[0] == pytest.approx(30.0 / 300.0)

    def test_log_transform_consistent(self, extractor):
        features = build_features(make_recipe(), extractor)
        assert features.gel_log[0] == pytest.approx(-math.log(6.0 / 300.0))

    def test_absent_gel_uses_floor(self, extractor):
        features = build_features(make_recipe(), extractor)
        # kanten and agar absent → floored at -log(1e-6)
        assert features.gel_log[1] == pytest.approx(-math.log(1e-6))

    def test_term_counts(self, extractor):
        features = build_features(
            make_recipe(description="purupuru purupuru katai"), extractor
        )
        assert features.term_counts["purupuru"] == 2
        assert features.n_terms == 3

    def test_term_sequence_is_deterministic(self, extractor):
        features = build_features(
            make_recipe(description="purupuru katai purupuru"), extractor
        )
        assert features.term_sequence() == ["katai", "purupuru", "purupuru"]

    def test_unrelated_fraction_counts_fruit(self, extractor):
        recipe = make_recipe(
            ingredients=(
                Ingredient("gelatin", "6 g"),
                Ingredient("strawberry", "100 g"),
                Ingredient("water", "194 ml"),
            )
        )
        features = build_features(recipe, extractor)
        assert features.unrelated_fraction == pytest.approx(100.0 / 300.0)

    def test_water_is_not_unrelated(self, extractor):
        features = build_features(make_recipe(), extractor)
        assert features.unrelated_fraction == 0.0

    def test_total_mass(self, extractor):
        features = build_features(make_recipe(), extractor)
        assert features.total_mass_g == pytest.approx(300.0)

    def test_term_counts_readonly(self, extractor):
        features = build_features(make_recipe(), extractor)
        with pytest.raises(TypeError):
            features.term_counts["x"] = 1  # type: ignore[index]

    def test_vector_shapes(self, extractor):
        features = build_features(make_recipe(), extractor)
        assert features.gel_raw.shape == (3,)
        assert features.emulsion_raw.shape == (6,)
