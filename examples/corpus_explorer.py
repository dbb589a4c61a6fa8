"""Corpus explorer: the recipe corpus and word2vec substrates up close.

Walks the data side of the pipeline without any topic modelling:
generates a corpus, runs collection-style queries over its recipes (as
Section IV-A describes collecting gel recipes from Cookpad), trains the
skip-gram embedding with the pipeline's own settings, and shows the
nearest-neighbour structure behind the gel-relatedness filter.

Run:
    python examples/corpus_explorer.py
"""

from __future__ import annotations

from collections import Counter

from repro import CorpusGenerator, CorpusPreset, build_dictionary
from repro.corpus.tokenizer import Tokenizer
from repro.embedding import GelRelatednessFilter
from repro.pipeline.dataset import DEFAULT_W2V_CONFIG


def main() -> None:
    print("Generating 2,000 synthetic posted recipes…")
    generator = CorpusGenerator(rng=5)
    corpus = generator.generate(CorpusPreset(name="explorer", n_recipes=2000))
    recipes = corpus.recipes

    from repro.corpus.stats import CorpusStats, render_stats

    print("\n=== corpus statistics ===")
    print(render_stats(CorpusStats.from_recipes(recipes)))

    print(f"\nCorpus holds {len(recipes)} recipes.")
    print(
        "Gel usage:",
        {
            g: sum(r.has_ingredient(g) for r in recipes)
            for g in ("gelatin", "kanten", "agar")
        },
    )

    tokenizer = Tokenizer()
    words = [
        set(tokenizer.tokenize(f"{r.title} {r.description}")) for r in recipes
    ]
    purupuru = [w for w in words if "purupuru" in w]
    print(f"Recipes whose text mentions 'purupuru': {len(purupuru)}")
    both = [w for w in purupuru if "gelatin" in w]
    print(f"…of which also mention gelatin: {len(both)}")

    mousse_like = [
        r
        for r in recipes
        if r.has_ingredient("cream") and r.has_ingredient("egg_white")
    ]
    print(f"Cream + egg-white (mousse-style) recipes: {len(mousse_like)}")

    dishes = Counter(r.metadata.get("dish", "?") for r in recipes)
    print("Most common dishes:", dishes.most_common(5))

    print("\nTraining skip-gram embeddings on sentence units…")
    sentences = []
    for recipe in recipes:
        for part in recipe.description.split("."):
            tokens = tokenizer.tokenize(part)
            if tokens:
                sentences.append(tokens)
    gel_filter = GelRelatednessFilter(config=DEFAULT_W2V_CONFIG).fit(
        sentences, rng=2
    )
    model = gel_filter.model
    assert model is not None and model.vocab is not None

    for probe in ("purupuru", "karikari", "almond", "gelatin"):
        if probe in model.vocab:
            neighbours = ", ".join(
                f"{t} ({s:.2f})" for t, s in model.most_similar(probe, 6)
            )
            print(f"  {probe:>10} → {neighbours}")

    dictionary = build_dictionary()
    report = gel_filter.report(dictionary)
    print(
        f"\nGel-relatedness filter: examined {report.examined} in-vocabulary "
        f"terms, excluded {report.n_excluded}:"
    )
    for surface, anchors in sorted(report.evidence.items()):
        print(f"  {surface:<14} anchored to {anchors}")


if __name__ == "__main__":
    main()
