"""The warm inference engine behind the texture service.

A :class:`ModelBundle` is everything a fitted pipeline leaves behind
that serving needs — the joint model's φ/gel Gaussians, the KL
:class:`~repro.core.linkage.TopicLinker` and the dataset vocabulary —
loaded once from an :class:`~repro.artifacts.store.ArtifactStore` (by
run fingerprint) and held in memory for the life of the process.

:class:`InferenceEngine` answers the paper's motivating question for an
*unseen* recipe: featurise it exactly like the training corpus, fold it
into the fitted model with a few collapsed Gibbs passes (document topic
mixture θ is collapsed; per-token topics z and the document-level
concentration topic y are resampled), and read off

* the posterior topic mixture (averaged over post-burn-in sweeps),
* the winning topic's texture-term pattern, and
* the KL-linked Table I rheology settings with an ok/review confidence.

Determinism contract: every request draws from its own RNG stream
seeded by :func:`request_seed` on the request *content*, so the same
question always gets a bit-identical answer — sequentially, batched, or
interleaved with other traffic (this is what makes micro-batching in
:mod:`repro.serve.batch` safe).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.artifacts.store import ArtifactStore
from repro.core.kernels import sample_from_cumulative
from repro.core.linkage import TopicLinker
from repro.corpus.extraction import TextureTermExtractor
from repro.corpus.features import RecipeFeatures, build_features
from repro.corpus.recipe import Ingredient, Recipe
from repro.errors import (
    ArtifactError,
    BadRequestError,
    ServeError,
    UnknownTermError,
)
from repro.lexicon.categories import AXES
from repro.lexicon.dictionary import TextureDictionary, build_dictionary
from repro.obs import trace
from repro.rheology.studies import TABLE_I, EmpiricalSetting
from repro.rng import ensure_rng
from repro.serve.schemas import (
    PredictedTerm,
    RheologySettings,
    TermResponse,
    TextureRequest,
    TextureResponse,
)

#: Stage names the bundle needs from a run manifest.
_DATASET_STAGE = "build-dataset"
_MODEL_STAGE = "fit-model"
_LINKER_STAGE = "build-linker"


def request_seed(base_seed: int, canonical: str) -> int:
    """Derive a request's RNG seed from its canonical content.

    SHA-256 of ``(base_seed, canonical request)``, truncated to 64 bits:
    identical requests share a stream (bit-identical answers), distinct
    requests get independent streams.
    """
    digest = hashlib.sha256(
        f"{base_seed}:{canonical}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class FoldInConfig:
    """Gibbs fold-in settings of one engine."""

    #: Total fold-in sweeps per request.
    n_sweeps: int = 48
    #: Sweeps discarded before the posterior average starts.
    burn_in: int = 16
    #: Posterior mass on the winning topic needed for ``status="ok"``.
    ok_threshold: float = 0.5
    #: Base seed mixed into every per-request stream.
    base_seed: int = 20220501

    def __post_init__(self) -> None:
        if not 0 <= self.burn_in < self.n_sweeps:
            raise ServeError("need 0 <= burn_in < n_sweeps")
        if not 0.0 < self.ok_threshold <= 1.0:
            raise ServeError("ok_threshold must lie in (0, 1]")


@dataclass(frozen=True)
class ModelBundle:
    """A fitted pipeline's serving surface, warm in memory."""

    model: Any
    linker: TopicLinker
    vocabulary: tuple[str, ...]
    #: Experiment fingerprint of the run that fitted the model.
    fingerprint: str
    #: Per-stage artifact fingerprints (provenance for /healthz).
    stage_fingerprints: Mapping[str, str]

    @classmethod
    def load(
        cls, store: ArtifactStore, fingerprint: str | None = None
    ) -> "ModelBundle":
        """Load a bundle from an artifact store.

        ``fingerprint`` selects a run manifest by experiment-fingerprint
        prefix; ``None`` takes the most recent run. Raises
        :class:`~repro.errors.ServeError` when the store has no usable
        fitted run.
        """
        from repro.pipeline.stages import (
            BuildDatasetStage,
            BuildLinkerStage,
            FitModelStage,
        )

        runs = store.iter_runs()
        if fingerprint is not None:
            manifests = [
                manifest
                for _, manifest in runs
                if str(manifest.get("experiment", "")).startswith(fingerprint)
            ]
            if not manifests:
                raise ServeError(
                    f"no run matching fingerprint {fingerprint!r} in the "
                    f"store at {store.root}"
                )
        else:
            manifests = [manifest for _, manifest in runs]
            if not manifests:
                raise ServeError(
                    f"no fitted runs in the store at {store.root}; "
                    "populate it first with `repro run --cache-dir "
                    f"{store.root}`"
                )
        manifest = manifests[0]
        stages: Mapping[str, Any] = manifest.get("stages", {})
        fingerprints: dict[str, str] = {}
        for name in (_DATASET_STAGE, _MODEL_STAGE, _LINKER_STAGE):
            record = stages.get(name, {})
            stage_fp = record.get("fingerprint")
            if not stage_fp:
                raise ServeError(
                    f"run {manifest.get('experiment')} has no {name!r} "
                    "stage; it cannot serve"
                )
            fingerprints[name] = stage_fp
        try:
            dataset, _ = store.load(
                BuildDatasetStage(), fingerprints[_DATASET_STAGE]
            )
            model, _ = store.load(FitModelStage(), fingerprints[_MODEL_STAGE])
            linker, _ = store.load(
                BuildLinkerStage(), fingerprints[_LINKER_STAGE]
            )
        except ArtifactError as exc:
            raise ServeError(
                f"run {manifest.get('experiment')} references artifacts "
                f"missing from {store.root} (gc'd?): {exc}"
            ) from exc
        return cls(
            model=model,
            linker=linker,
            vocabulary=tuple(dataset.vocabulary),
            fingerprint=str(manifest.get("experiment")),
            stage_fingerprints=fingerprints,
        )

    @classmethod
    def from_result(cls, result: Any) -> "ModelBundle":
        """Build a bundle from an in-process
        :class:`~repro.pipeline.experiment.ExperimentResult` (tests and
        benchmarks; production serving loads from the store)."""
        stages: Mapping[str, Any] = {}
        if result.provenance is not None:
            stages = result.provenance.get("stages", {})
        return cls(
            model=result.model,
            linker=result.linker,
            vocabulary=tuple(result.vocabulary),
            fingerprint=result.config.cache_key(),
            stage_fingerprints={
                name: record.get("fingerprint", "")
                for name, record in stages.items()
            },
        )


class InferenceEngine:
    """Fold-in texture inference against one warm :class:`ModelBundle`."""

    def __init__(
        self,
        bundle: ModelBundle,
        config: FoldInConfig | None = None,
        dictionary: TextureDictionary | None = None,
    ) -> None:
        model = bundle.model
        if getattr(model, "phi_", None) is None:
            raise ServeError("the bundled model is not fitted")
        self.bundle = bundle
        self.config = config or FoldInConfig()
        self.model = model
        self.linker = bundle.linker
        self.vocabulary = bundle.vocabulary
        self.dictionary = dictionary or build_dictionary()
        self._extractor = TextureTermExtractor(self.dictionary)
        self._term_ids = {s: i for i, s in enumerate(self.vocabulary)}
        self._phi = np.asarray(model.phi_, dtype=float)
        self._alpha = float(getattr(model.config, "alpha", 1.0))
        self._gel_params = self.linker.gel_params()
        self._assignment_table = self.linker.assignment_table(TABLE_I)
        self._settings_by_id = {s.data_id: s for s in TABLE_I}

    @property
    def n_topics(self) -> int:
        return int(np.asarray(self.model.gel_means_).shape[0])

    # -- featurisation -----------------------------------------------------

    def features_of(self, request: TextureRequest) -> RecipeFeatures:
        """Featurise a request exactly like a training recipe.

        Explicit ``terms`` are validated against the model vocabulary
        (:class:`~repro.errors.UnknownTermError` for misses) and merged
        into the description-mined counts as extra evidence.
        """
        recipe = Recipe(
            recipe_id="serve",
            title="serve request",
            description=request.description,
            ingredients=tuple(
                Ingredient(name, quantity)
                for name, quantity in request.ingredients
            ),
        )
        features = build_features(recipe, self._extractor)
        if not request.terms:
            return features
        merged = dict(features.term_counts)
        for surface in request.terms:
            if surface not in self._term_ids:
                raise UnknownTermError(surface)
            merged[surface] = merged.get(surface, 0) + 1
        return dataclasses.replace(features, term_counts=merged)

    # -- fold-in Gibbs -----------------------------------------------------

    def fold_in(
        self, features: RecipeFeatures, rng: np.random.Generator
    ) -> np.ndarray:
        """Posterior topic mixture of one unseen recipe.

        Collapsed Gibbs fold-in with θ integrated out: each texture-term
        token keeps a topic ``z_i`` and the document keeps the single
        concentration topic ``y`` that ties the gel evidence in (the
        model's core coupling). Fitted φ and the floored gel Gaussians
        stay frozen — only the new document's assignments move.

        The returned mixture is the Rao-Blackwellised posterior of the
        document's concentration topic, ``p(y | z, g)`` averaged over
        post-burn-in sweeps — the distribution that drives both the
        texture-term pattern and the Table I linkage, and the one whose
        concentration the ok/review confidence reads. It sums to one.

        Every draw funnels through ``rng`` in a fixed order, so the
        result is a pure function of ``(features, rng state)``.
        """
        n_topics = self.n_topics
        alpha = self._alpha
        token_ids = np.array(
            [
                self._term_ids[s]
                for s in features.term_sequence()
                if s in self._term_ids
            ],
            dtype=np.int64,
        )
        # Document-level gel evidence, one log-density per topic.
        log_gel = np.array(
            [
                float(self._gel_params[k].log_density(features.gel_log)[0])
                for k in range(n_topics)
            ]
        )
        gel_weight = np.exp(log_gel - log_gel.max())

        z = rng.integers(0, n_topics, size=token_ids.size)
        counts = np.bincount(z, minlength=n_topics).astype(float)
        y = int(rng.integers(0, n_topics))
        accumulated = np.zeros(n_topics)
        kept = 0
        for sweep in range(self.config.n_sweeps):
            # y | z, g: collapsed θ gives (α + n_k), the gel Gaussian
            # gives the likelihood factor.
            y_weights = (alpha + counts) * gel_weight
            y = sample_from_cumulative(np.cumsum(y_weights), rng.random())
            # z_i | z_-i, y: y contributes one count to the collapsed θ.
            for i in range(token_ids.size):
                counts[z[i]] -= 1.0
                base = alpha + counts
                base[y] += 1.0
                weights = base * self._phi[:, token_ids[i]]
                z[i] = sample_from_cumulative(
                    np.cumsum(weights), rng.random()
                )
                counts[z[i]] += 1.0
            if sweep >= self.config.burn_in:
                conditional = (alpha + counts) * gel_weight
                accumulated += conditional / conditional.sum()
                kept += 1
        return accumulated / kept

    # -- endpoints ---------------------------------------------------------

    def infer(self, request: TextureRequest) -> TextureResponse:
        """Answer one ``POST /v1/texture`` request deterministically."""
        with trace.span("serve.fold-in", n_topics=self.n_topics):
            features = self.features_of(request)
            seed = request_seed(self.config.base_seed, request.canonical())
            posterior = self.fold_in(features, ensure_rng(seed))
        topic = int(posterior.argmax())
        confidence = float(posterior[topic])
        status = "ok" if confidence >= self.config.ok_threshold else "review"
        predicted = tuple(
            PredictedTerm(surface=self.vocabulary[v], probability=float(p))
            for v, p in self.model.top_words(topic, request.top_terms)
        )
        linked = tuple(self._assignment_table.get(topic, ()))
        return TextureResponse(
            status=status,
            confidence=confidence,
            topic=topic,
            topic_distribution=tuple(float(p) for p in posterior),
            predicted_terms=predicted,
            rheology=self._expected_rheology(linked),
            linked_settings=linked,
            model_fingerprint=self.bundle.fingerprint,
            seed=seed,
        )

    def term_profile(self, surface: str) -> TermResponse:
        """Answer one ``GET /v1/terms/{term}`` request."""
        term = self.dictionary.get(surface)
        term_id = self._term_ids.get(surface)
        if term is None or term_id is None:
            raise UnknownTermError(surface)
        column = self._phi[:, term_id]
        total = float(column.sum())
        affinity = (
            column / total
            if total > 0
            else np.full(self.n_topics, 1.0 / self.n_topics)
        )
        best = int(affinity.argmax())
        linked = tuple(self._assignment_table.get(best, ()))
        return TermResponse(
            surface=term.surface,
            gloss=term.gloss,
            gel_related=term.gel_related,
            polarity={
                axis.value: float(term.polarity_on(axis)) for axis in AXES
            },
            topic_affinity=tuple(float(p) for p in affinity),
            best_topic=best,
            rheology=self._expected_rheology(linked),
            linked_settings=linked,
            model_fingerprint=self.bundle.fingerprint,
        )

    def health(self) -> dict[str, Any]:
        """The model identity block of ``GET /healthz``."""
        return {
            "fingerprint": self.bundle.fingerprint,
            "stages": dict(self.bundle.stage_fingerprints),
            "n_topics": self.n_topics,
            "vocabulary_size": len(self.vocabulary),
            "fold_in": {
                "n_sweeps": self.config.n_sweeps,
                "burn_in": self.config.burn_in,
                "ok_threshold": self.config.ok_threshold,
            },
        }

    # -- internals ---------------------------------------------------------

    def _expected_rheology(
        self, linked: tuple[int, ...]
    ) -> RheologySettings | None:
        """Mean measured texture over the linked Table I settings."""
        if not linked:
            return None
        settings: list[EmpiricalSetting] = [
            self._settings_by_id[data_id] for data_id in linked
        ]
        values = np.mean([s.texture.as_array() for s in settings], axis=0)
        return RheologySettings(
            hardness=float(values[0]),
            cohesiveness=float(values[1]),
            adhesiveness=float(values[2]),
        )


def validate_request(body: bytes) -> TextureRequest:
    """Parse a texture request body (re-exported convenience)."""
    request = TextureRequest.parse(body)
    if not request.ingredients:
        raise BadRequestError("at least one ingredient is required")
    return request
