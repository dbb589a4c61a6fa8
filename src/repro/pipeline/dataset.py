"""Section IV-A dataset construction.

Turns a pile of posted recipes into the three-feature dataset the joint
model consumes, reproducing the paper's funnel:

1. tokenise descriptions; train word2vec on sentence units and exclude
   texture terms anchored to gel-unrelated ingredients (Section III-A);
2. spot the remaining dictionary terms, normalise ingredient quantities
   to grams, and derive −log concentration vectors;
3. drop recipes with no texture terms, no gel, or >10 % unrelated
   ingredients (Section IV-A), keeping per-rule counts.

The result is a :class:`TextureDataset`: aligned documents (term-id
sequences), gel/emulsion matrices, the vocabulary actually used (the
paper's "41 texture terms out of 288"), and funnel statistics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.corpus.extraction import TextureTermExtractor
from repro.corpus.features import RecipeFeatures, build_features
from repro.corpus.filters import DatasetFilter
from repro.corpus.recipe import Recipe
from repro.corpus.tokenizer import Tokenizer
from repro.embedding.gel_filter import GelRelatednessFilter
from repro.embedding.skipgram import SkipGramConfig
from repro.errors import CorpusError, UnitConversionError, UnitParseError
from repro.lexicon.dictionary import TextureDictionary, build_dictionary
from repro.rheology.gel_system import EMULSION_NAMES, GEL_NAMES
from repro.rng import RngLike, ensure_rng

#: Word2vec settings used for the Section III-A gel-relatedness filter
#: when a builder is not given an explicit config (also the settings the
#: staged pipeline fingerprints).
DEFAULT_W2V_CONFIG = SkipGramConfig(epochs=6, dim=32, min_count=3, window=4)


@dataclass(frozen=True)
class TextureDataset:
    """The featurised, filtered dataset plus bookkeeping."""

    features: tuple[RecipeFeatures, ...]
    vocabulary: tuple[str, ...]
    docs: tuple[np.ndarray, ...]
    gel_log: np.ndarray
    emulsion_log: np.ndarray
    gel_raw: np.ndarray
    emulsion_raw: np.ndarray
    excluded_terms: frozenset[str]
    funnel: Mapping[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.features)

    @property
    def recipe_ids(self) -> tuple[str, ...]:
        return tuple(f.recipe_id for f in self.features)

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    def term_counts_list(self) -> list[Mapping[str, int]]:
        """Per-recipe term-frequency maps, aligned with ``features``."""
        return [f.term_counts for f in self.features]


class DatasetBuilder:
    """Builds a :class:`TextureDataset` from posted recipes."""

    def __init__(
        self,
        dictionary: TextureDictionary | None = None,
        tokenizer: Tokenizer | None = None,
        use_w2v_filter: bool = True,
        w2v_config: SkipGramConfig | None = None,
        dataset_filter: DatasetFilter | None = None,
        deduplicate: bool = False,
        dedup_threshold: float = 0.85,
    ) -> None:
        self.dictionary = dictionary or build_dictionary()
        self.tokenizer = tokenizer or Tokenizer()
        self.use_w2v_filter = use_w2v_filter
        self.w2v_config = w2v_config or DEFAULT_W2V_CONFIG
        self.dataset_filter = dataset_filter or DatasetFilter()
        #: Drop MinHash near-duplicates before anything else. Off by
        #: default: the synthetic corpus has none, but scraped data does.
        self.deduplicate = deduplicate
        self.dedup_threshold = dedup_threshold

    # -- steps ------------------------------------------------------------

    def sentences_of(self, recipes: Sequence[Recipe]) -> list[list[str]]:
        """Sentence-level token lists for word2vec training."""
        sentences: list[list[str]] = []
        for recipe in recipes:
            for part in f"{recipe.title} . {recipe.description}".split("."):
                tokens = self.tokenizer.tokenize(part)
                if tokens:
                    sentences.append(tokens)
        return sentences

    def excluded_terms(
        self, recipes: Sequence[Recipe], rng: RngLike = None
    ) -> frozenset[str]:
        """Run the Section III-A word2vec gel-relatedness filter."""
        if not self.use_w2v_filter:
            return frozenset()
        sentences = self.sentences_of(recipes)
        gel_filter = GelRelatednessFilter(config=self.w2v_config)
        gel_filter.fit(sentences, rng=ensure_rng(rng))
        return frozenset(gel_filter.excluded_surfaces(self.dictionary))

    # -- the build -----------------------------------------------------------

    def build(
        self,
        recipes: Iterable[Recipe],
        rng: RngLike = None,
        excluded: frozenset[str] | None = None,
    ) -> TextureDataset:
        """Construct the dataset, mirroring the Section IV-A funnel.

        ``excluded`` short-circuits the word2vec gel-relatedness filter
        with a precomputed surface set — the staged pipeline runs that
        filter as its own cached stage and feeds the result in here.
        """
        recipes = list(recipes)
        if not recipes:
            raise CorpusError("no recipes to build a dataset from")
        n_duplicates = 0
        if self.deduplicate:
            from repro.corpus.dedup import RecipeDeduplicator

            deduplicator = RecipeDeduplicator(
                threshold=self.dedup_threshold, tokenizer=self.tokenizer
            )
            unique = deduplicator.deduplicate(recipes)
            n_duplicates = len(recipes) - len(unique)
            recipes = unique
        if excluded is None:
            excluded = self.excluded_terms(recipes, rng=rng)
        kept, counts = self._featurise(recipes, excluded)
        if not kept:
            raise CorpusError("dataset filter rejected every recipe")
        funnel = {
            "collected": len(recipes) + n_duplicates,
            "duplicates": n_duplicates,
            **counts,
        }
        return _dataset_of(kept, excluded, funnel)

    # -- sharded builds -------------------------------------------------------

    def build_shard(
        self,
        recipes: Iterable[Recipe],
        excluded: frozenset[str],
    ) -> TextureDataset:
        """Featurise one corpus shard with a precomputed exclusion set.

        Sharded builds run the word2vec gel-relatedness filter once over
        the whole corpus and feed its surface set in here, so every
        shard agrees on the exclusions. Unlike :meth:`build`, a shard
        where the funnel rejects every recipe is a legitimate outcome:
        the result is a zero-row dataset whose funnel still records the
        rejections, and :func:`merge_datasets` raises only when *all*
        shards come back empty. Near-duplicate removal is skipped —
        per-shard MinHash cannot see cross-shard duplicates, so sharded
        corpora must be deduplicated upstream.
        """
        recipes = list(recipes)
        kept, counts = self._featurise(recipes, excluded)
        funnel = {"collected": len(recipes), "duplicates": 0, **counts}
        if not kept:
            return _empty_dataset(excluded, funnel)
        return _dataset_of(kept, excluded, funnel)

    def _featurise(
        self, recipes: Sequence[Recipe], excluded: frozenset[str]
    ) -> tuple[list[RecipeFeatures], dict[str, int]]:
        """Featurise and filter ``recipes``: the kept features and the
        funnel counts (``unparseable``, ``kept``, ``rejected_*``).

        The rejections are counted on a fresh copy of the builder's
        filter, so a reused builder reports each build's own funnel
        instead of a running total.
        """
        extractor = TextureTermExtractor(
            self.dictionary, self.tokenizer, excluded=excluded
        )
        dataset_filter = dataclasses.replace(
            self.dataset_filter,
            rejected=dict.fromkeys(self.dataset_filter.rejected, 0),
        )
        unparseable = 0
        kept: list[RecipeFeatures] = []
        for recipe in recipes:
            try:
                features = build_features(recipe, extractor)
            except (UnitParseError, UnitConversionError):
                unparseable += 1
                continue
            if dataset_filter.accept(features):
                kept.append(features)
        return kept, {
            "unparseable": unparseable,
            "kept": len(kept),
            **{f"rejected_{k}": v for k, v in dataset_filter.rejected.items()},
        }


def _dataset_of(
    kept: Sequence[RecipeFeatures],
    excluded: frozenset[str],
    funnel: Mapping[str, int],
) -> TextureDataset:
    """The dataset of the kept features over their own vocabulary."""
    vocabulary = tuple(
        sorted({surface for f in kept for surface in f.term_counts})
    )
    term_ids = {surface: i for i, surface in enumerate(vocabulary)}
    docs = tuple(
        np.array([term_ids[s] for s in f.term_sequence()], dtype=np.int64)
        for f in kept
    )
    return TextureDataset(
        features=tuple(kept),
        vocabulary=vocabulary,
        docs=docs,
        gel_log=np.vstack([f.gel_log for f in kept]),
        emulsion_log=np.vstack([f.emulsion_log for f in kept]),
        gel_raw=np.vstack([f.gel_raw for f in kept]),
        emulsion_raw=np.vstack([f.emulsion_raw for f in kept]),
        excluded_terms=excluded,
        funnel=funnel,
    )


def _empty_dataset(
    excluded: frozenset[str], funnel: Mapping[str, int]
) -> TextureDataset:
    """A zero-recipe dataset with correctly shaped feature matrices."""
    return TextureDataset(
        features=(),
        vocabulary=(),
        docs=(),
        gel_log=np.zeros((0, len(GEL_NAMES))),
        emulsion_log=np.zeros((0, len(EMULSION_NAMES))),
        gel_raw=np.zeros((0, len(GEL_NAMES))),
        emulsion_raw=np.zeros((0, len(EMULSION_NAMES))),
        excluded_terms=excluded,
        funnel=dict(funnel),
    )


def merge_datasets(parts: Sequence[TextureDataset]) -> TextureDataset:
    """Merge per-shard datasets into one corpus-wide dataset.

    The merged vocabulary is the sorted union of the shard vocabularies
    (matching what an unsharded :meth:`DatasetBuilder.build` over the
    concatenated recipes would produce), shard-local term ids are
    remapped into it, and integer funnel counters are summed. Empty
    shards contribute their funnel counts but no rows; if *every* shard
    is empty the corpus-wide filter rejected everything, which is the
    same error the unsharded build raises.
    """
    if not parts:
        raise CorpusError("no dataset shards to merge")
    excluded = parts[0].excluded_terms
    for part in parts[1:]:
        if part.excluded_terms != excluded:
            raise CorpusError("dataset shards disagree on excluded terms")
    if all(len(part) == 0 for part in parts):
        raise CorpusError("dataset filter rejected every recipe")

    vocabulary = tuple(
        sorted({surface for part in parts for surface in part.vocabulary})
    )
    term_ids = {surface: i for i, surface in enumerate(vocabulary)}
    docs: list[np.ndarray] = []
    features: list[RecipeFeatures] = []
    for part in parts:
        remap = np.array(
            [term_ids[surface] for surface in part.vocabulary],
            dtype=np.int64,
        )
        for doc in part.docs:
            docs.append(remap[doc] if len(doc) else doc.astype(np.int64))
        features.extend(part.features)

    funnel: dict[str, int] = {}
    for part in parts:
        for key, value in part.funnel.items():
            if isinstance(value, int):
                funnel[key] = funnel.get(key, 0) + value
    funnel["shards"] = len(parts)

    return TextureDataset(
        features=tuple(features),
        vocabulary=vocabulary,
        docs=tuple(docs),
        gel_log=np.vstack([part.gel_log for part in parts]),
        emulsion_log=np.vstack([part.emulsion_log for part in parts]),
        gel_raw=np.vstack([part.gel_raw for part in parts]),
        emulsion_raw=np.vstack([part.emulsion_raw for part in parts]),
        excluded_terms=excluded,
        funnel=funnel,
    )
