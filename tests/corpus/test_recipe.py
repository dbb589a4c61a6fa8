"""Tests for repro.corpus.recipe."""

import pytest

from repro.corpus.recipe import Ingredient, Recipe
from repro.errors import CorpusError


def make_recipe(**kwargs):
    defaults = dict(
        recipe_id="R1",
        title="zerii",
        description="purupuru desu",
        ingredients=(
            Ingredient("gelatin", "5 g"),
            Ingredient("water", "300 ml"),
        ),
    )
    defaults.update(kwargs)
    return Recipe(**defaults)


class TestIngredient:
    def test_basic(self):
        ing = Ingredient("gelatin", "5 g")
        assert ing.name == "gelatin"

    def test_empty_name_rejected(self):
        with pytest.raises(CorpusError):
            Ingredient("", "5 g")

    def test_empty_quantity_rejected(self):
        with pytest.raises(CorpusError):
            Ingredient("gelatin", "")


class TestRecipe:
    def test_basic(self):
        recipe = make_recipe()
        assert recipe.ingredient_names() == ("gelatin", "water")

    def test_empty_id_rejected(self):
        with pytest.raises(CorpusError):
            make_recipe(recipe_id="")

    def test_duplicate_ingredient_rejected(self):
        with pytest.raises(CorpusError):
            make_recipe(
                ingredients=(
                    Ingredient("water", "100 ml"),
                    Ingredient("water", "200 ml"),
                )
            )

    def test_list_ingredients_coerced_to_tuple(self):
        recipe = make_recipe(ingredients=[Ingredient("water", "1 cup")])
        assert isinstance(recipe.ingredients, tuple)

    def test_has_ingredient(self):
        recipe = make_recipe()
        assert recipe.has_ingredient("gelatin")
        assert not recipe.has_ingredient("agar")

    def test_metadata_default_empty(self):
        assert dict(make_recipe().metadata) == {}
