"""Texture lookup: estimate what a *new* recipe will feel like.

The paper's motivating scenario — a home-cooking user posts (or finds) a
recipe with no texture description and wants to know the texture before
cooking. We fold the recipe into a fitted joint topic model and report
the predicted texture terms plus the rheological profile of the linked
food-science settings. The fold-in is the seeded one ``repro serve``
runs, so ``POST /v1/texture`` answers the same recipe identically.

Run:
    python examples/texture_lookup.py
"""

from __future__ import annotations

import os

from repro import Recipe, quick_config, run_experiment
from repro.core.estimator import TextureEstimator
from repro.corpus.recipe import Ingredient


def show(estimator: TextureEstimator, recipe: Recipe) -> None:
    estimate = estimator.estimate(recipe)
    print(f"\n--- {recipe.title} ---")
    print("ingredients:", ", ".join(
        f"{i.name} ({i.quantity_text})" for i in recipe.ingredients
    ))
    terms = ", ".join(f"{s} ({p:.2f})" for s, p in estimate.predicted_terms[:5])
    print(f"estimated texture terms: {terms}")
    rheology = estimate.expected_rheology()
    if rheology is not None:
        rows = ", ".join(str(s.data_id) for s in estimate.linked_settings)
        print(f"linked food-science settings (Table I rows {rows}): {rheology}")
    else:
        print("no Table I setting links to this topic")


def main() -> None:
    print("Fitting the pipeline once…")
    result = run_experiment(
        quick_config(),
        cache_dir=os.environ.get("REPRO_CACHE_DIR", ".repro-cache"),
    )
    estimator = TextureEstimator(result)

    # 1. a firm jelly (≈2.9 % gelatin): expect firm/resilient terms
    firm = Recipe(
        recipe_id="user-1",
        title="katame juice zerii",
        description="kantan na dessert desu",  # no texture words: cold start
        ingredients=(
            Ingredient("gelatin", "10 g"),
            Ingredient("juice", "320 ml"),
            Ingredient("sugar", "oosaji 2"),
        ),
    )
    show(estimator, firm)

    # 2. a barely-set sipping jelly: expect soft/loose terms
    jure = Recipe(
        recipe_id="user-2",
        title="peach jure",
        description="dessert ni dozo",
        ingredients=(
            Ingredient("gelatin", "3 g"),
            Ingredient("juice", "450 ml"),
            Ingredient("sugar", "oosaji 2"),
        ),
    )
    show(estimator, jure)

    # 3. a firm kanten sweet: expect brittle/dense terms
    kanten_jelly = Recipe(
        recipe_id="user-3",
        title="kanten jelly",
        description="natsukashii oyatsu",
        ingredients=(
            Ingredient("kanten", "8 g"),
            Ingredient("water", "400 ml"),
            Ingredient("sugar", "60 g"),
        ),
    )
    show(estimator, kanten_jelly)

    # 4. description evidence shifts the estimate: the author already
    # says the dish is "purupuru", and the gelatin+agar mix agrees
    mixed = Recipe(
        recipe_id="user-4",
        title="crystal jelly",
        description="purupuru ni katamarimashita",
        ingredients=(
            Ingredient("gelatin", "4 g"),
            Ingredient("agar", "4 g"),
            Ingredient("juice", "400 ml"),
            Ingredient("sugar", "30 g"),
        ),
    )
    show(estimator, mixed)


if __name__ == "__main__":
    main()
