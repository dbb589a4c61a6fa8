"""The warm inference engine behind the texture service.

A :class:`ModelBundle` is everything a fitted pipeline leaves behind
that serving needs — the joint model's φ/gel Gaussians, the KL
:class:`~repro.core.linkage.TopicLinker` and the dataset vocabulary —
loaded once from an :class:`~repro.artifacts.store.ArtifactStore` (by
run fingerprint) and held in memory for the life of the process.

:class:`InferenceEngine` is the HTTP adapter over one
:class:`~repro.core.estimator.TextureEstimator`, the only fold-in. Each
request draws from its own RNG stream seeded on the request *content*,
so the same question always gets a bit-identical answer — sequentially,
batched (what makes :mod:`repro.serve.batch` safe), cached (what makes
:class:`~repro.serve.app.ServeApp`'s answer cache safe), or from
``repro estimate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.artifacts.store import ArtifactStore
from repro.core.estimator import (
    BASE_SEED,
    FoldInConfig,
    TextureEstimator,
    mean_rheology,
    request_seed,
)
from repro.core.linkage import TopicLinker
from repro.corpus.features import RecipeFeatures
from repro.corpus.recipe import Ingredient, Recipe
from repro.errors import ArtifactError, BadRequestError, ServeError, UnknownTermError
from repro.lexicon.categories import AXES
from repro.lexicon.dictionary import TextureDictionary
from repro.obs import trace
from repro.rheology.attributes import TextureProfile
from repro.rng import ensure_rng
from repro.serve.schemas import (
    PredictedTerm,
    RheologySettings,
    TermResponse,
    TextureRequest,
    TextureResponse,
)

#: Most in-vocabulary texture-term tokens one request may fold in. The
#: fold-in's cost grows with the token count and one request holds the
#: collector thread; the largest training document has 9 tokens.
MAX_FOLD_IN_TOKENS = 256


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

        manifests = [manifest for _, manifest in store.iter_runs()]
        if fingerprint is not None:
            manifests = [
                manifest
                for manifest in manifests
                if str(manifest.get("experiment", "")).startswith(fingerprint)
            ]
            if not manifests:
                raise ServeError(
                    f"no run matching fingerprint {fingerprint!r} in the "
                    f"store at {store.root}"
                )
        if not manifests:
            raise ServeError(
                f"no fitted runs in the store at {store.root}; "
                f"populate it first with `repro run --cache-dir {store.root}`"
            )
        run = manifests[0].get("experiment")
        recorded: Mapping[str, Any] = manifests[0].get("stages", {})
        stages = (BuildDatasetStage(), FitModelStage(), BuildLinkerStage())
        fingerprints: dict[str, str] = {}
        for stage in stages:
            stage_fp = recorded.get(stage.name, {}).get("fingerprint")
            if not stage_fp:
                raise ServeError(
                    f"run {run} has no {stage.name!r} stage; it cannot serve"
                )
            fingerprints[stage.name] = stage_fp
        try:
            dataset, model, linker = (
                store.load(stage, fingerprints[stage.name])[0] for stage in stages
            )
        except ArtifactError as exc:
            raise ServeError(
                f"run {run} references artifacts missing from {store.root} "
                f"(gc'd?): {exc}"
            ) from exc
        return cls(
            model=model,
            linker=linker,
            vocabulary=tuple(dataset.vocabulary),
            fingerprint=str(run),
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
    """The HTTP adapter over one :class:`TextureEstimator`, warm on one
    :class:`ModelBundle`."""

    def __init__(
        self,
        bundle: ModelBundle,
        config: FoldInConfig | None = None,
        dictionary: TextureDictionary | None = None,
    ) -> None:
        if getattr(bundle.model, "phi_", None) is None:
            raise ServeError("the bundled model is not fitted")
        self.bundle = bundle
        self.estimator = TextureEstimator(bundle, config, dictionary)
        self.config = self.estimator.config
        self.vocabulary = self.estimator.vocabulary

    @property
    def n_topics(self) -> int:
        return int(self.estimator.phi.shape[0])

    def features_of(self, request: TextureRequest) -> RecipeFeatures:
        """:meth:`TextureEstimator.features` of a request; more than
        :data:`MAX_FOLD_IN_TOKENS` in-vocabulary tokens, explicit
        ``terms`` included, is a :class:`~repro.errors.BadRequestError`."""
        recipe = Recipe(
            recipe_id="serve",
            title="serve request",
            description=request.description,
            ingredients=tuple(Ingredient(*pair) for pair in request.ingredients),
        )
        features = self.estimator.features(recipe, request.terms)
        tokens = self.estimator.token_ids(features).size
        if tokens > MAX_FOLD_IN_TOKENS:
            raise BadRequestError(
                f"request has {tokens} texture-term tokens; at most "
                f"{MAX_FOLD_IN_TOKENS} are folded in"
            )
        return features

    def fold_in(self, features: RecipeFeatures, rng: np.random.Generator) -> np.ndarray:
        """:meth:`TextureEstimator.fold_in` of one featurised request."""
        return self.estimator.fold_in(features, rng)

    # -- endpoints ---------------------------------------------------------

    def infer(self, request: TextureRequest) -> TextureResponse:
        """Answer one ``POST /v1/texture`` request deterministically."""
        with trace.span("serve.fold-in", n_topics=self.n_topics):
            features = self.features_of(request)
            seed = request_seed(BASE_SEED, request.canonical())
            posterior = self.fold_in(features, ensure_rng(seed))
        estimate = self.estimator.readout(
            features.recipe_id, posterior, seed, request.top_terms
        )
        return TextureResponse(
            status=estimate.status,
            confidence=estimate.confidence,
            topic=estimate.topic,
            topic_distribution=tuple(float(p) for p in posterior),
            predicted_terms=tuple(
                PredictedTerm(surface=surface, probability=probability)
                for surface, probability in estimate.predicted_terms
            ),
            rheology=_rheology(estimate.expected_rheology()),
            linked_settings=tuple(s.data_id for s in estimate.linked_settings),
            model_fingerprint=self.bundle.fingerprint,
            seed=seed,
        )

    def term_profile(self, surface: str) -> TermResponse:
        """Answer one ``GET /v1/terms/{term}`` request."""
        term = self.estimator.dictionary.get(surface)
        term_id = self.estimator.term_ids.get(surface)
        if term is None or term_id is None:
            raise UnknownTermError(surface)
        column = self.estimator.phi[:, term_id]
        total = float(column.sum())
        affinity = (
            column / total
            if total > 0
            else np.full(self.n_topics, 1.0 / self.n_topics)
        )
        best = int(affinity.argmax())
        linked = self.estimator.linked.get(best, ())
        return TermResponse(
            surface=term.surface,
            gloss=term.gloss,
            gel_related=term.gel_related,
            polarity={
                axis.value: float(term.polarity_on(axis)) for axis in AXES
            },
            topic_affinity=tuple(float(p) for p in affinity),
            best_topic=best,
            rheology=_rheology(mean_rheology(linked)),
            linked_settings=tuple(s.data_id for s in linked),
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


def _rheology(profile: TextureProfile | None) -> RheologySettings | None:
    """The wire form of a mean Table I texture."""
    if profile is None:
        return None
    return RheologySettings(*profile.as_array().tolist())


def validate_request(body: bytes) -> TextureRequest:
    """Parse a texture request body (re-exported convenience)."""
    request = TextureRequest.parse(body)
    if not request.ingredients:
        raise BadRequestError("at least one ingredient is required")
    return request
