"""Data behind the paper's tables.

Each ``table*_rows`` function returns plain dataclass rows so tests can
assert on values and :mod:`repro.pipeline.reporting` can print the same
row structure the paper typesets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.eval.divergence import concentration_kl
from repro.lexicon.dictionary import TextureDictionary, build_dictionary
from repro.pipeline.experiment import ExperimentResult
from repro.rheology.attributes import TextureProfile
from repro.rheology.gel_system import GEL_NAMES, GelSystemModel
from repro.rheology.studies import DISH_STUDIES, TABLE_I, DishStudy, EmpiricalSetting


# --------------------------------------------------------------------------
# Table I — empirical settings, published vs simulated through the rheometer
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    """One Table I row with our instrument-simulated counterpart."""

    setting: EmpiricalSetting
    simulated: TextureProfile

    @property
    def data_id(self) -> int:
        return self.setting.data_id

    @property
    def published(self) -> TextureProfile:
        return self.setting.texture


def table1_rows(model: GelSystemModel | None = None) -> list[Table1Row]:
    """Simulate every Table I setting through the two-bite rheometer."""
    model = model or GelSystemModel()
    return [
        Table1Row(setting=s, simulated=model.measure(s.composition()))
        for s in TABLE_I
    ]


# --------------------------------------------------------------------------
# Table II(a) — acquired topics and their assignment to Table I
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Table2aRow:
    """One topic row of Table II(a)."""

    topic: int
    n_recipes: int
    gel_summary: dict[str, float]        # gel → mean concentration (present recipes)
    gel_presence: dict[str, float]       # gel → fraction of recipes containing it
    top_terms: tuple[tuple[str, float, str], ...]  # (surface, prob, gloss)
    linked_data_ids: tuple[int, ...]     # Table I rows mapped to this topic


def table2a_rows(
    result: ExperimentResult,
    dictionary: TextureDictionary | None = None,
    n_terms: int = 10,
    presence_threshold: float = 0.25,
    min_term_probability: float = 0.01,
) -> list[Table2aRow]:
    """Build Table II(a) from a fitted pipeline, largest topics first.

    The gel column mirrors the paper's display: a gel appears when at
    least ``presence_threshold`` of the topic's recipes contain it, with
    the mean concentration computed over those recipes.
    """
    dictionary = dictionary or build_dictionary()
    assignment = result.topic_assignments()
    link_table = result.linker.assignment_table(TABLE_I)
    vocabulary = result.vocabulary
    phi = np.asarray(result.model.phi_)
    gel_raw = result.dataset.gel_raw

    rows: list[Table2aRow] = []
    sizes = result.model.topic_sizes()
    for topic in np.argsort(sizes)[::-1]:
        topic = int(topic)
        members = assignment == topic
        count = int(members.sum())
        if count == 0:
            continue
        summary: dict[str, float] = {}
        presence: dict[str, float] = {}
        for i, gel in enumerate(GEL_NAMES):
            values = gel_raw[members, i]
            has = values > 0.0
            fraction = float(has.mean())
            if fraction >= presence_threshold:
                presence[gel] = fraction
                summary[gel] = float(values[has].mean())
        terms = []
        for v, p in result.model.top_words(topic, n_terms):
            if p < min_term_probability:
                break
            surface = vocabulary[v]
            entry = dictionary.get(surface)
            terms.append((surface, p, entry.gloss if entry else ""))
        rows.append(
            Table2aRow(
                topic=topic,
                n_recipes=count,
                gel_summary=summary,
                gel_presence=presence,
                top_terms=tuple(terms),
                linked_data_ids=tuple(link_table.get(topic, ())),
            )
        )
    return rows


# --------------------------------------------------------------------------
# Table II(b) — Bavarois / Milk jelly assignment
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Table2bRow:
    """One dish row of Table II(b), with our assigned topic."""

    dish: DishStudy
    assigned_topic: int
    divergence: float


def table2b_rows(
    result: ExperimentResult,
    dishes: Sequence[DishStudy] = DISH_STUDIES,
) -> list[Table2bRow]:
    """Assign each Table II(b) dish to its most similar topic."""
    rows = []
    for dish in dishes:
        link = result.linker.link_dish(dish)
        rows.append(
            Table2bRow(
                dish=dish, assigned_topic=link.topic, divergence=link.divergence
            )
        )
    return rows


def dish_neighbour_kl(
    result: ExperimentResult, dish: DishStudy, topic: int
) -> np.ndarray:
    """Section V-B: emulsion-KL of each topic recipe to the dish."""
    assignment = result.topic_assignments()
    members = np.flatnonzero(assignment == topic)
    dish_shares = dish.emulsion_vector()
    return np.array(
        [
            concentration_kl(result.dataset.emulsion_raw[i], dish_shares)
            for i in members
        ]
    )
