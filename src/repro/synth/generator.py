"""The Cookpad simulator.

Pipeline per recipe (see the package docstring for why):

1. draw an archetype and sample its composition grammar into ingredient
   masses;
2. render masses into quantity strings ("oosaji 2", "200cc", "2 mai") and
   re-parse them, so unit rounding is part of the ground truth;
3. push the parsed composition through the Table-I-calibrated rheology
   model, with lognormal batch noise, to get the dish's quantitative
   texture;
4. sample texture terms with profile-conditioned affinities, plus crispy
   terms anchored to nut toppings when present;
5. assemble a romanised-Japanese description embedding those terms.

The generator returns both the recipes and a :class:`GroundTruth` per
recipe (true composition, true profile, archetype, gel band) that the
evaluation harness uses — the topic model itself never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.corpus.recipe import Ingredient, Recipe
from repro.lexicon.dictionary import TextureDictionary, build_dictionary
from repro.lexicon.term import TextureTerm
from repro.rheology.attributes import TextureProfile
from repro.rheology.gel_system import (
    EMULSION_NAMES,
    GEL_NAMES,
    Composition,
    GelSystemModel,
)
from repro.rng import RngLike, WeightedChoice, ensure_rng
from repro.synth import templates
from repro.synth.archetypes import ARCHETYPE_INDEX, Archetype, Optional_
from repro.synth.ingredients import render_quantity
from repro.synth.presets import CorpusPreset, DEFAULT_PRESET
from repro.synth.term_affinity import crispy_terms, sample_terms
from repro.units.convert import concentrations

#: Minimum share kept for the neutral (water-phase) base ingredient.
_MIN_NEUTRAL_FRACTION = 0.15


def gel_band(gels: Mapping[str, float]) -> str:
    """A coarse ground-truth cluster label from gel concentrations.

    Bands follow the concentration regimes Table II(a)'s topics occupy;
    they are the reference labels for NMI/purity evaluation.
    """
    gelatin = gels.get("gelatin", 0.0)
    kanten = gels.get("kanten", 0.0)
    agar = gels.get("agar", 0.0)
    if gelatin >= 0.004 and agar >= 0.004:
        return "gelatin+agar"
    dominant = max(GEL_NAMES, key=lambda n: gels.get(n, 0.0))
    value = gels.get(dominant, 0.0)
    if value <= 0.0:
        return "none"
    if dominant == "gelatin":
        edges = ((0.009, "low"), (0.018, "mid"), (0.035, "high"))
        fallback = "very_high"
    elif dominant == "kanten":
        edges = ((0.008, "low"), (0.015, "mid"))
        fallback = "high"
    else:
        edges = ((0.0125, "low"),)
        fallback = "high"
    for edge, label in edges:
        if value < edge:
            return f"{dominant}:{label}"
    return f"{dominant}:{fallback}"


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows about one recipe (hidden from models)."""

    archetype: str
    dish: str
    composition: Composition
    profile: TextureProfile
    gel_band: str
    sampled_terms: tuple[str, ...]
    topping_terms: tuple[str, ...]


@dataclass(frozen=True)
class SyntheticCorpus:
    """Generated recipes plus their ground truth."""

    recipes: tuple[Recipe, ...]
    truths: Mapping[str, GroundTruth]
    preset_name: str

    def __len__(self) -> int:
        return len(self.recipes)

    def __iter__(self) -> Iterator[Recipe]:
        return iter(self.recipes)

    def truth_of(self, recipe_id: str) -> GroundTruth:
        """Ground truth for one recipe id."""
        return self.truths[recipe_id]


class CorpusGenerator:
    """Generates a synthetic recipe-sharing-site corpus."""

    def __init__(
        self,
        model: GelSystemModel | None = None,
        dictionary: TextureDictionary | None = None,
        rng: RngLike = None,
    ) -> None:
        self.model = model or GelSystemModel()
        self.dictionary = dictionary or build_dictionary()
        self.rng = ensure_rng(rng)
        self._gel_terms: tuple[TextureTerm, ...] = self.dictionary.gel_related()
        self._crispy_terms: tuple[TextureTerm, ...] = crispy_terms(
            tuple(self.dictionary)
        )

    # -- public API ---------------------------------------------------------

    def generate(self, preset: CorpusPreset = DEFAULT_PRESET) -> SyntheticCorpus:
        """Generate a full corpus according to ``preset``."""
        names = sorted(preset.archetype_weights)
        weights = np.array([preset.archetype_weights[n] for n in names])
        archetypes = WeightedChoice(weights / weights.sum())
        recipes: list[Recipe] = []
        truths: dict[str, GroundTruth] = {}
        for index in range(preset.n_recipes):
            archetype = ARCHETYPE_INDEX[names[archetypes.draw(self.rng)]]
            recipe, truth = self.generate_one(f"R{index:06d}", archetype, preset)
            recipes.append(recipe)
            truths[recipe.recipe_id] = truth
        return SyntheticCorpus(
            recipes=tuple(recipes),
            truths=truths,
            preset_name=preset.name,
        )

    def generate_one(
        self,
        recipe_id: str,
        archetype: Archetype,
        preset: CorpusPreset = DEFAULT_PRESET,
    ) -> tuple[Recipe, GroundTruth]:
        """Generate one recipe of the given archetype."""
        rng = self.rng
        fractions = self._sample_fractions(archetype)
        total_mass = float(rng.uniform(300.0, 700.0))
        ingredients = self._render_ingredients(fractions, total_mass)
        ratios = self._parsed_ratios(ingredients)

        composition = Composition(
            gels={n: ratios[n] for n in GEL_NAMES if ratios.get(n, 0.0) > 0},
            emulsions={
                n: ratios[n] for n in EMULSION_NAMES if ratios.get(n, 0.0) > 0
            },
        )
        profile = self._noisy_profile(composition, preset.profile_noise_sigma)

        gel_terms, topping_terms = self._sample_description_terms(
            profile, fractions, preset
        )
        dish = templates.pick(archetype.dish_names, rng)
        description = self._compose_description(
            dish, fractions, gel_terms, topping_terms
        )

        recipe = Recipe(
            recipe_id=recipe_id,
            title=f"{dish} reshipi",
            description=description,
            ingredients=tuple(ingredients),
            metadata={"archetype": archetype.name, "dish": dish},
        )
        truth = GroundTruth(
            archetype=archetype.name,
            dish=dish,
            composition=composition,
            profile=profile,
            gel_band=gel_band(composition.gels),
            sampled_terms=tuple(t.surface for t in gel_terms),
            topping_terms=tuple(t.surface for t in topping_terms),
        )
        return recipe, truth

    # -- composition sampling -------------------------------------------------

    def _draw(self, option: Optional_) -> float | None:
        if self.rng.random() >= option.prob:
            return None
        lo, hi = option.rng.lo, option.rng.hi
        return float(np.exp(self.rng.uniform(np.log(lo), np.log(hi))))  # repro: noqa[NUM002] - archetype concentration bounds are strictly positive

    def _sample_fractions(self, archetype: Archetype) -> dict[str, float]:
        rng = self.rng
        fractions: dict[str, float] = {}
        gel_drawn = False
        for name, option in archetype.gels.items():
            value = self._draw(option)
            if value is not None:
                fractions[name] = value
                gel_drawn = True
        if not gel_drawn:  # a gel dish always has at least its primary gel
            name, option = next(iter(archetype.gels.items()))
            fractions[name] = float(
                np.exp(rng.uniform(np.log(option.rng.lo), np.log(option.rng.hi)))  # repro: noqa[NUM002] - archetype concentration bounds are strictly positive
            )
        for name, option in archetype.emulsions.items():
            value = self._draw(option)
            if value is not None:
                fractions[name] = value
        if archetype.fruits is not None:
            share = self._draw(archetype.fruits)
            if share is not None:
                chosen = rng.choice(
                    len(archetype.fruit_choices),
                    size=min(2, len(archetype.fruit_choices)),
                    replace=False,
                )
                split = rng.dirichlet(np.ones(len(chosen)))
                for take, part in zip(chosen, split):
                    fractions[archetype.fruit_choices[int(take)]] = share * float(part)
        if archetype.bulk is not None and archetype.bulk_choices:
            share = self._draw(archetype.bulk)
            if share is not None:
                name = archetype.bulk_choices[
                    int(rng.integers(len(archetype.bulk_choices)))
                ]
                fractions[name] = fractions.get(name, 0.0) + share
        if archetype.toppings is not None:
            share = self._draw(archetype.toppings)
            if share is not None:
                from repro.synth.ingredients import TOPPING_INGREDIENTS

                name = TOPPING_INGREDIENTS[
                    int(rng.integers(len(TOPPING_INGREDIENTS)))
                ]
                fractions[name] = share
        if rng.random() < archetype.flavor_prob:
            name = archetype.flavor_choices[
                int(rng.integers(len(archetype.flavor_choices)))
            ]
            fractions[name] = float(rng.uniform(0.002, 0.01))

        used = sum(fractions.values())
        neutral = archetype.neutrals[int(rng.integers(len(archetype.neutrals)))]
        if used > 1.0 - _MIN_NEUTRAL_FRACTION:
            scale = (1.0 - _MIN_NEUTRAL_FRACTION) / used
            fractions = {k: v * scale for k, v in fractions.items()}
            used = 1.0 - _MIN_NEUTRAL_FRACTION
        fractions[neutral] = fractions.get(neutral, 0.0) + (1.0 - used)
        return fractions

    def _render_ingredients(
        self, fractions: dict[str, float], total_mass: float
    ) -> list[Ingredient]:
        ingredients = []
        for name, fraction in fractions.items():
            grams = fraction * total_mass
            ingredients.append(
                Ingredient(name=name, quantity_text=render_quantity(name, grams, self.rng))
            )
        return ingredients

    @staticmethod
    def _parsed_ratios(ingredients: list[Ingredient]) -> dict[str, float]:
        from repro.corpus.features import mass_table
        from repro.corpus.recipe import Recipe as _R

        shell = _R(
            recipe_id="_",
            title="_",
            description="_",
            ingredients=tuple(ingredients),
        )
        return concentrations(mass_table(shell))

    def _noisy_profile(
        self, composition: Composition, sigma: float
    ) -> TextureProfile:
        clean = self.model.profile(composition)
        if sigma <= 0.0:
            return clean
        noise = np.exp(self.rng.normal(0.0, sigma, size=3))
        values = clean.as_array() * noise
        values[1] = min(values[1], 0.95)
        return TextureProfile.from_array(values)

    # -- term and text sampling -------------------------------------------------

    def _sample_description_terms(
        self,
        profile: TextureProfile,
        fractions: dict[str, float],
        preset: CorpusPreset,
    ) -> tuple[list[TextureTerm], list[TextureTerm]]:
        rng = self.rng
        gel_terms: list[TextureTerm] = []
        if rng.random() < preset.term_presence:
            n = 1 + int(rng.poisson(preset.extra_term_rate))
            gel_terms = sample_terms(
                self._gel_terms, profile, n, rng, sharpness=preset.sharpness
            )
        topping_terms: list[TextureTerm] = []
        from repro.synth.ingredients import TOPPING_INGREDIENTS

        has_topping = any(name in fractions for name in TOPPING_INGREDIENTS)
        if has_topping and rng.random() < preset.topping_term_prob:
            count = 1 + int(rng.random() < 0.3)
            picks = rng.choice(len(self._crispy_terms), size=count)
            topping_terms = [self._crispy_terms[int(i)] for i in picks]
        return gel_terms, topping_terms

    def _compose_description(
        self,
        dish: str,
        fractions: dict[str, float],
        gel_terms: list[TextureTerm],
        topping_terms: list[TextureTerm],
    ) -> str:
        from repro.synth.ingredients import TOPPING_INGREDIENTS

        rng = self.rng
        gel = next((n for n in GEL_NAMES if n in fractions), "gelatin")
        emulsions_present = [n for n in EMULSION_NAMES if n in fractions]
        emulsion = (
            emulsions_present[int(rng.integers(len(emulsions_present)))]
            if emulsions_present
            else "milk"
        )
        topping = next(
            (n for n in TOPPING_INGREDIENTS if n in fractions), "almond"
        )

        sentences = [templates.pick(templates.INTRO_SENTENCES, rng).format(dish=dish)]
        for _ in range(int(rng.integers(1, 3))):
            sentences.append(
                templates.pick(templates.STEP_SENTENCES, rng).format(
                    gel=gel, emulsion=emulsion
                )
            )
        for term in gel_terms:
            sentences.append(
                templates.sentence_for_term(term.surface, dish, gel, rng)
            )
        for term in topping_terms:
            sentences.append(
                templates.sentence_for_topping(term.surface, topping, rng)
            )
        if any(name in fractions for name in TOPPING_INGREDIENTS):
            sentences.append(
                templates.pick(templates.TOPPING_STEP_SENTENCES, rng).format(
                    topping=topping
                )
            )
        if rng.random() < 0.7:
            sentences.append(templates.pick(templates.CLOSING_SENTENCES, rng))
        return " . ".join(sentences) + " ."
