"""Quickstart: run the full paper pipeline and print the main table.

Generates a synthetic recipe-sharing-site corpus, builds the Section IV-A
dataset (texture-term spotting, unit normalisation, word2vec filtering),
fits the joint texture topic model, links topics to the Table I
food-science settings, and prints the Table II(a) analogue.

Run:
    python examples/quickstart.py

Stage outputs are cached on disk (``$REPRO_CACHE_DIR``, default
``.repro-cache``), so a second run — or any other example with the same
configuration — skips straight to the tables with identical results.
"""

from __future__ import annotations

import os

from repro import quick_config, run_experiment
from repro.eval.metrics import normalized_mutual_information
from repro.pipeline.reporting import render_table2a, render_table2b
from repro.pipeline.tables import table2a_rows, table2b_rows

CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


def main() -> None:
    print("Running the pipeline (1,500 synthetic recipes, K=10)…")
    result = run_experiment(quick_config(), cache_dir=CACHE_DIR)
    provenance = result.provenance
    if provenance is not None:
        print(
            f"artifact store {CACHE_DIR}: {provenance['hits']} stages "
            f"cached, {provenance['misses']} computed"
        )

    funnel = dict(result.dataset.funnel)
    print(
        f"\nDataset funnel: collected {funnel['collected']} → "
        f"kept {funnel['kept']} "
        f"(no texture terms: {funnel['rejected_no_terms']}, "
        f"unrelated-heavy: {funnel['rejected_unrelated']})"
    )
    print(
        f"Vocabulary: {result.dataset.vocab_size} texture terms "
        f"({len(result.dataset.excluded_terms)} excluded by the word2vec filter)"
    )

    print("\n=== Topics (Table II(a) analogue) ===")
    print(render_table2a(table2a_rows(result)))

    print("\n=== Dish assignment (Table II(b) analogue) ===")
    print(render_table2b(table2b_rows(result)))

    nmi = normalized_mutual_information(
        result.topic_assignments(), result.truth_bands()
    )
    print(f"\nNMI against ground-truth gel bands: {nmi:.3f}")


if __name__ == "__main__":
    main()
