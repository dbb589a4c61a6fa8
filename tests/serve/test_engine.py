"""Tests for repro.serve.engine: fold-in, determinism, bundle loading."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.artifacts.store import ArtifactStore
from repro.core import estimator as estimator_module
from repro.core import normal_wishart as nw
from repro.core.estimator import TextureEstimator
from repro.corpus.recipe import Ingredient, Recipe
from repro.errors import (
    BadRequestError,
    ModelError,
    ServeError,
    UnknownTermError,
)
from repro.serve import (
    FoldInConfig,
    InferenceEngine,
    ModelBundle,
    request_seed,
)
from repro.serve.engine import validate_request
from repro.serve.schemas import TextureRequest
from tests.core.test_estimator import oracle_fold_in

GELATIN = TextureRequest(
    ingredients=(("gelatin", "10 g"), ("water", "200 ml")),
    description="chilled and set until firm",
)
KANTEN = TextureRequest(
    ingredients=(("kanten", "4 g"), ("water", "300 ml")),
    description="boiled then cooled into a crisp jelly",
)
COLD_START = TextureRequest(
    ingredients=(("gelatin", "3 g"), ("juice", "450 ml"), ("sugar", "oosaji 2")),
)


class TestRequestSeed:
    def test_identical_content_identical_seed(self):
        assert request_seed(7, GELATIN.canonical()) == request_seed(
            7, GELATIN.canonical()
        )

    def test_distinct_content_distinct_seed(self):
        assert request_seed(7, GELATIN.canonical()) != request_seed(
            7, KANTEN.canonical()
        )

    def test_base_seed_separates_streams(self):
        assert request_seed(1, GELATIN.canonical()) != request_seed(
            2, GELATIN.canonical()
        )

    def test_top_terms_does_not_change_the_seed(self):
        """Presentation knobs must not change the posterior's stream."""
        more = TextureRequest(
            ingredients=GELATIN.ingredients,
            description=GELATIN.description,
            top_terms=20,
        )
        assert GELATIN.canonical() == more.canonical()


class TestFoldInConfig:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ModelError):
            FoldInConfig(ok_threshold=0.0)


class TestInfer:
    def test_posterior_is_a_distribution(self, engine):
        response = engine.infer(GELATIN)
        posterior = np.array(response.topic_distribution)
        assert posterior.shape == (engine.n_topics,)
        assert np.all(posterior >= 0)
        assert posterior.sum() == pytest.approx(1.0)

    def test_repeat_requests_bit_identical(self, engine):
        first = engine.infer(GELATIN)
        second = engine.infer(GELATIN)
        assert first == second
        assert first.topic_distribution == second.topic_distribution

    def test_confidence_is_winning_topic_mass(self, engine):
        response = engine.infer(GELATIN)
        posterior = response.topic_distribution
        assert response.confidence == posterior[response.topic]
        assert response.confidence == max(posterior)

    def test_status_follows_threshold(self, bundle):
        eager = InferenceEngine(
            bundle, FoldInConfig(n_sweeps=12, ok_threshold=1e-6)
        )
        assert eager.infer(GELATIN).status == "ok"
        strict = InferenceEngine(
            bundle, FoldInConfig(n_sweeps=12, ok_threshold=1.0)
        )
        assert strict.infer(GELATIN).status == "review"

    def test_distinct_gels_distinct_posteriors(self, engine):
        gelatin = engine.infer(GELATIN)
        kanten = engine.infer(KANTEN)
        assert gelatin.topic_distribution != kanten.topic_distribution

    def test_explicit_terms_shift_the_answer(self, engine):
        surface = engine.vocabulary[0]
        with_term = TextureRequest(
            ingredients=GELATIN.ingredients,
            description=GELATIN.description,
            terms=(surface,),
        )
        assert engine.infer(with_term) != engine.infer(GELATIN)

    def test_unknown_explicit_term_raises(self, engine):
        bad = TextureRequest(
            ingredients=GELATIN.ingredients, terms=("zzz-not-a-term",)
        )
        with pytest.raises(UnknownTermError):
            engine.infer(bad)

    def test_predicted_terms_respect_top_terms(self, engine):
        trimmed = TextureRequest(
            ingredients=GELATIN.ingredients,
            description=GELATIN.description,
            top_terms=3,
        )
        assert len(engine.infer(trimmed).predicted_terms) == 3

    def test_response_carries_model_fingerprint(self, engine, bundle):
        assert engine.infer(GELATIN).model_fingerprint == bundle.fingerprint


class TestOneFoldIn:
    """``TextureEstimator.estimate`` (``repro estimate``, the examples)
    returns exactly the served posterior for the same recipe."""

    @pytest.mark.parametrize("case", ["cold-start", "gelatin", "kanten", "terms"])
    def test_estimate_matches_served_answer(self, tiny_result, case):
        engine = InferenceEngine(ModelBundle.from_result(tiny_result))
        request = {
            "cold-start": COLD_START,
            "gelatin": GELATIN,
            "kanten": KANTEN,
            "terms": TextureRequest(
                ingredients=GELATIN.ingredients,
                description=" ".join(engine.vocabulary[2:5]),
                terms=engine.vocabulary[:2],
            ),
        }[case]
        recipe = Recipe(
            recipe_id=case,
            title=case,
            description=request.description,
            ingredients=tuple(Ingredient(*pair) for pair in request.ingredients),
        )
        served = engine.infer(request)
        estimate = TextureEstimator(tiny_result).estimate(
            recipe, terms=request.terms
        )
        assert tuple(estimate.topic_distribution.tolist()) == (
            served.topic_distribution
        )
        assert estimate.topic == served.topic
        assert estimate.seed == served.seed


class TestServedBytes:
    """The served fold-in answers every body with the bytes of the
    per-draw numpy loop (:func:`~tests.core.test_estimator.oracle_fold_in`)."""

    INGREDIENTS = (
        (("gelatin", "10 g"), ("water", "200 ml")),
        (("kanten", "4 g"), ("water", "300 ml"), ("sugar", "60 g")),
        (("gelatin", "3 g"), ("juice", "450 ml"), ("sugar", "oosaji 2")),
        (("agar", "5g"), ("milk", "400 ml")),
    )

    @staticmethod
    def bodies(vocabulary):
        """36 bodies: 0-8 description terms, some with explicit terms."""
        bodies = []
        for n_terms in range(9):
            for i, ingredients in enumerate(TestServedBytes.INGREDIENTS):
                words = [vocabulary[(n_terms * 5 + i + j) % len(vocabulary)]
                         for j in range(n_terms)]
                body = {
                    "ingredients": [
                        {"name": name, "quantity": quantity}
                        for name, quantity in ingredients
                    ],
                    "description": " ".join(["hiyashite", *words]),
                }
                if i == 3:
                    body["terms"] = words[:2]
                bodies.append(json.dumps(body).encode("utf-8"))
        return bodies

    @pytest.fixture(scope="class")
    def served(self, bundle):
        """The served engine (default sweeps) and its parsed requests."""
        engine = InferenceEngine(bundle)
        requests = [validate_request(b) for b in self.bodies(engine.vocabulary)]
        return engine, requests

    def test_bytes_equal_the_oracle_loop(self, served, monkeypatch):
        engine, requests = served
        tokens = {
            engine.estimator.token_ids(engine.features_of(r)).size
            for r in requests
        }
        assert {0, 1} <= tokens and max(tokens) >= 5, tokens
        shipped = [json.dumps(engine.infer(r).to_dict()) for r in requests]
        assert {json.loads(b)["status"] for b in shipped} == {"ok", "review"}
        monkeypatch.setattr(estimator_module, "gibbs_fold_in", oracle_fold_in)
        oracle = [json.dumps(engine.infer(r).to_dict()) for r in requests]
        assert shipped == oracle

    def test_batched_gel_density_equals_the_per_topic_loop(self, served):
        engine, requests = served
        params = engine.bundle.linker.gel_params()
        for request in requests:
            gel_log = engine.features_of(request).gel_log
            loop = np.array([float(p.log_density(gel_log)[0]) for p in params])
            assert np.array_equal(nw.batch_log_density(params, gel_log)[0], loop)
            # The stack the estimator builds once and scores every request on.
            assert np.array_equal(
                engine.estimator._gel.log_density(gel_log)[0], loop
            )


class TestTermProfile:
    def test_known_term(self, engine):
        surface = engine.vocabulary[0]
        profile = engine.term_profile(surface)
        assert profile.surface == surface
        assert len(profile.topic_affinity) == engine.n_topics
        assert sum(profile.topic_affinity) == pytest.approx(1.0)
        assert 0 <= profile.best_topic < engine.n_topics

    def test_unknown_term_raises(self, engine):
        with pytest.raises(UnknownTermError):
            engine.term_profile("zzz-not-a-term")


class TestValidateRequest:
    def test_empty_ingredients_rejected(self):
        with pytest.raises(BadRequestError):
            validate_request(b'{"ingredients": []}')

    def test_parses_mapping_form(self):
        request = validate_request(
            b'{"ingredients": {"gelatin": "10 g"}, "description": "x"}'
        )
        assert request.ingredients == (("gelatin", "10 g"),)


class TestModelBundle:
    def test_load_matches_in_process_result(self, tmp_path, engine):
        """A bundle loaded back from disk answers bit-identically."""
        from repro.pipeline.experiment import quick_config, run_experiment

        run_experiment(
            quick_config(250, 20, seed=3), cache_dir=str(tmp_path)
        )
        loaded = ModelBundle.load(ArtifactStore(str(tmp_path)))
        disk_engine = InferenceEngine(
            loaded, FoldInConfig(n_sweeps=12)
        )
        mine = engine.infer(GELATIN)
        theirs = disk_engine.infer(GELATIN)
        assert mine.topic_distribution == theirs.topic_distribution
        assert mine.topic == theirs.topic
        assert loaded.stage_fingerprints.keys() == {
            "build-dataset", "fit-model", "build-linker"
        }

    def test_load_empty_store_raises(self, tmp_path):
        with pytest.raises(ServeError, match="no fitted runs"):
            ModelBundle.load(ArtifactStore(str(tmp_path / "void")))

    def test_load_unknown_fingerprint_raises(self, tmp_path):
        with pytest.raises(ServeError, match="no run matching"):
            ModelBundle.load(
                ArtifactStore(str(tmp_path / "void")), fingerprint="beef"
            )

    def test_unfitted_model_rejected(self, bundle):
        from dataclasses import replace

        class Unfitted:
            phi_ = None

        with pytest.raises(ServeError, match="not fitted"):
            InferenceEngine(replace(bundle, model=Unfitted()))
